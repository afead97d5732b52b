module Hash = Iss_crypto.Hash

(* No vote, lookup or record below allocates an option: a vote handler runs
   O(n) times per slot, and an option per vote is measurable allocation at
   n=64.  The lists are walked directly, and [by_node] marks "no vote yet"
   with [no_vote], a digest no peer can send (compared physically). *)

type count = { digest : Hash.t; mutable votes : int }

type view_tally = {
  view : int;
  by_node : Hash.t array;  (* node -> digest it voted for, or [no_vote] *)
  mutable counts : count list;  (* one entry per distinct digest *)
}

type t = { n : int; mutable views : view_tally list }

let no_vote = Hash.of_raw (String.make Hash.size '\000')
let create ~n = { n; views = [] }

let rec view_tally t view = function
  | v :: _ when v.view = view -> v
  | _ :: rest -> view_tally t view rest
  | [] ->
      let v = { view; by_node = Array.make t.n no_vote; counts = [] } in
      t.views <- v :: t.views;
      v

let rec bump_existing digest delta = function
  | c :: _ when Hash.equal c.digest digest ->
      c.votes <- c.votes + delta;
      true
  | _ :: rest -> bump_existing digest delta rest
  | [] -> false

let bump v digest delta =
  if not (bump_existing digest delta v.counts) then
    v.counts <- { digest; votes = delta } :: v.counts

let record v ~node digest =
  let old = v.by_node.(node) in
  if old != no_vote then bump v old (-1);
  v.by_node.(node) <- digest;
  bump v digest 1

let add t ~view ~node digest =
  node >= 0 && node < t.n
  &&
  let v = view_tally t view t.views in
  v.by_node.(node) == no_vote && (record v ~node digest; true)

let set t ~view ~node digest =
  if node >= 0 && node < t.n then record (view_tally t view t.views) ~node digest

let rec count_digest digest = function
  | c :: _ when Hash.equal c.digest digest -> c.votes
  | _ :: rest -> count_digest digest rest
  | [] -> 0

let rec count_view view digest = function
  | v :: _ when v.view = view -> count_digest digest v.counts
  | _ :: rest -> count_view view digest rest
  | [] -> 0

let count t ~view digest = count_view view digest t.views
