(* A node's bucket FIFOs behind one id -> entry index.

   Arrival numbers come from one per-node counter, so first-time adds reach
   a bucket in increasing order and go to the tail of a growable ring.  The
   only out-of-order inserts are re-entries (a request returned after an
   aborted proposal or a drop-oldest eviction, rare by construction), kept
   in a small sorted side list that [front] merges by arrival number.

   An entry is linked into one ring or side list from [link] until [pop]
   unlinks it, or until a commit clears [queued] in place, drops the entry
   from the index and leaves [trim] to skip the dead slot.  So an indexed
   entry that is not queued is linked nowhere, and a re-entry re-links that
   same entry.

   Each bucket counts the index entries of its requests, queued or cut, so
   a commit looks the id up only where that count is positive.  Clients
   send a request to the few nodes that may lead its bucket
   ([Bucket_assignment.client_targets]), so on every other node the count
   is 0 and a commit costs no index lookup.

   Memory follows use: a bucket holds the shared read-only [empty_fifo]
   until its first add, and [clear] hands its own fifo back; the index
   starts small, since a node indexes only the requests sent to it. *)

module Key_tbl = Proto.Request.Key_tbl

type entry = { mutable req : Proto.Request.t; seq : int; mutable queued : bool }

type fifo = {
  mutable ring : entry array;  (* [empty_ring] or a power-of-two capacity *)
  mutable head : int;  (* logical index of the oldest slot *)
  mutable tail : int;  (* logical index one past the newest *)
  mutable behind : entry list;  (* re-entries, sorted ascending by seq *)
  mutable count : int;  (* queued entries *)
  mutable last_seq : int;  (* newest arrival number the ring has taken *)
  mutable indexed : int;  (* index entries of this bucket's requests *)
}

type t = {
  num_buckets : int;
  fifos : fifo array;
  index : entry Key_tbl.t;  (* id key -> entry, from first arrival to commit *)
  mutable next_seq : int;
  mutable pending : int;
  (* Observability counters (DESIGN.md §8), read only by metric
     snapshots. *)
  mutable total_added : int;
  mutable max_occupancy : int;
}

let initial_capacity = 8

(* Fills empty ring slots; never queued, never indexed. *)
let dummy =
  { req = Proto.Request.make ~client:(-1) ~ts:0 ~submitted_at:0 (); seq = -1; queued = false }

(* Every fifo's ring until its first add; never written. *)
let empty_ring = [||]

let new_fifo () =
  { ring = empty_ring; head = 0; tail = 0; behind = []; count = 0; last_seq = min_int; indexed = 0 }

(* Every bucket's fifo until its first add; never written. *)
let empty_fifo = new_fifo ()

let create ~num_buckets =
  {
    num_buckets;
    fifos = Array.make num_buckets empty_fifo;
    index = Key_tbl.create 64;
    next_seq = 0;
    pending = 0;
    total_added = 0;
    max_occupancy = 0;
  }

let length t ~bucket = t.fifos.(bucket).count
let pending t = t.pending
let total_added t = t.total_added
let max_occupancy t = t.max_occupancy

(* [find], not [find_opt]: a hit then allocates no option. *)
let queued t id =
  match Key_tbl.find t.index (Proto.Request.id_key id) with
  | e -> e.queued
  | exception Not_found -> false

let fifo_of t (id : Proto.Request.id) =
  t.fifos.(Proto.Request.bucket_of_id ~num_buckets:t.num_buckets id)

(* The bucket's own fifo, made on its first add. *)
let own_fifo t (id : Proto.Request.id) =
  let b = Proto.Request.bucket_of_id ~num_buckets:t.num_buckets id in
  let f = t.fifos.(b) in
  if f != empty_fifo then f
  else begin
    let f = new_fifo () in
    t.fifos.(b) <- f;
    f
  end

let slot f logical = f.ring.(logical land (Array.length f.ring - 1))

let grow f =
  let cap = Array.length f.ring in
  if f.tail - f.head = cap then begin
    let cap' = if cap = 0 then initial_capacity else 2 * cap in
    let ring = Array.make cap' dummy in
    for i = f.head to f.tail - 1 do
      ring.(i land (cap' - 1)) <- slot f i
    done;
    f.ring <- ring
  end

let link t f e =
  if e.seq > f.last_seq then begin
    grow f;
    f.ring.(f.tail land (Array.length f.ring - 1)) <- e;
    f.tail <- f.tail + 1;
    f.last_seq <- e.seq
  end
  else begin
    let rec insert = function
      | e' :: rest when e'.seq < e.seq -> e' :: insert rest
      | rest -> e :: rest
    in
    f.behind <- insert f.behind
  end;
  e.queued <- true;
  f.count <- f.count + 1;
  t.pending <- t.pending + 1;
  t.total_added <- t.total_added + 1;
  if f.count > t.max_occupancy then t.max_occupancy <- f.count

(* Queue [r] at its arrival number; a first-seen id takes [t.next_seq],
   consuming it only when [consume]. *)
let enter t (r : Proto.Request.t) ~consume =
  let key = Proto.Request.id_key r.id in
  match Key_tbl.find t.index key with
  | e when e.queued -> false
  | e ->
      e.req <- r;
      link t (fifo_of t r.id) e;
      true
  | exception Not_found ->
      let e = { req = r; seq = t.next_seq; queued = false } in
      if consume then t.next_seq <- t.next_seq + 1;
      Key_tbl.add t.index key e;
      let f = own_fifo t r.id in
      f.indexed <- f.indexed + 1;
      link t f e;
      true

let add t r = enter t r ~consume:true
let resurrect t r = ignore (enter t r ~consume:false)

(* Skip dead slots at the front of the ring and the side list. *)
let rec trim f =
  if f.head < f.tail && not (slot f f.head).queued then begin
    f.head <- f.head + 1;
    trim f
  end
  else
    match f.behind with
    | e :: rest when not e.queued ->
        f.behind <- rest;
        trim f
    | _ -> ()

(* The oldest queued entry, or [dummy] when the bucket is empty. *)
let front f =
  trim f;
  let ring = if f.head < f.tail then slot f f.head else dummy in
  match f.behind with
  | e :: _ when ring == dummy || e.seq < ring.seq -> e
  | _ -> ring

let pop t f =
  let e = front f in
  (match f.behind with
  | e' :: rest when e' == e -> f.behind <- rest
  | _ -> f.head <- f.head + 1);
  e.queued <- false;
  f.count <- f.count - 1;
  t.pending <- t.pending - 1;
  e.req

(* The fifo among [buckets] whose front arrived first, the earlier one in
   the list on equal arrival numbers; [best] if none beats [best_seq]. *)
let rec oldest t buckets best best_seq =
  match buckets with
  | [] -> best
  | b :: rest ->
      let f = t.fifos.(b) in
      if f.count = 0 then oldest t rest best best_seq
      else
        let seq = (front f).seq in
        if seq < best_seq then oldest t rest f seq else oldest t rest best best_seq

let cut t ~buckets ~max =
  match buckets with
  | [] -> [||]
  | b0 :: _ ->
      let queued = List.fold_left (fun n b -> n + t.fifos.(b).count) 0 buckets in
      Array.init
        (Stdlib.max 0 (min max queued))
        (fun _ -> pop t (oldest t buckets t.fifos.(b0) max_int))

let commit t id =
  let f = fifo_of t id in
  if f.indexed > 0 then
    let key = Proto.Request.id_key id in
    match Key_tbl.find t.index key with
    | exception Not_found -> ()
    | e ->
        Key_tbl.remove t.index key;
        f.indexed <- f.indexed - 1;
        if e.queued then begin
          e.queued <- false;
          f.count <- f.count - 1;
          t.pending <- t.pending - 1;
          trim f
        end

(* Every request entering after the clear takes an arrival number from
   [t.next_seq] on, so a fifo's [last_seq] (never above [t.next_seq])
   matters only when it equals [t.next_seq]: such a fifo is emptied in
   place, every other one handed back. *)
let clear t =
  Array.iteri
    (fun b f ->
      if f.last_seq < t.next_seq then t.fifos.(b) <- empty_fifo
      else begin
        f.ring <- empty_ring;
        f.head <- 0;
        f.tail <- 0;
        f.behind <- [];
        f.count <- 0;
        f.indexed <- 0
      end)
    t.fifos;
  Key_tbl.reset t.index;
  t.pending <- 0
