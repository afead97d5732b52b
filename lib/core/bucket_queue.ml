(* FIFO by arrival sequence with O(1) amortized add / remove / cut.

   The common path exploits that arrival sequence numbers are assigned from
   a per-node counter, so [add]s arrive in increasing order: a growable
   circular buffer holds the requests; removal by id tombstones the slot
   through an id -> logical-position index.  The only out-of-order inserts
   are resurrections (a request returned after an aborted proposal, rare by
   construction), kept in a small sorted side list that [cut]/[peek] merge
   by sequence number. *)

module Key_tbl = Proto.Request.Key_tbl

type slot = { s_seq : int; mutable s_req : Proto.Request.t option }

type t = {
  mutable buf : slot array;
  mutable head : int;  (* logical index of the oldest live slot *)
  mutable tail : int;  (* logical index one past the newest *)
  by_id : slot Key_tbl.t;  (* id key -> slot (buffer or resurrected) *)
  mutable resurrected : (int * slot) list;  (* sorted ascending by seq *)
  mutable count : int;
  mutable last_seq : int;
  (* Observability counters (DESIGN.md §8): two int stores per add, read
     only by metric snapshots. *)
  mutable total_added : int;
  mutable max_count : int;
}

let initial_capacity = 64

let create () =
  {
    buf = Array.make initial_capacity { s_seq = -1; s_req = None };
    head = 0;
    tail = 0;
    by_id = Key_tbl.create 64;
    resurrected = [];
    count = 0;
    last_seq = min_int;
    total_added = 0;
    max_count = 0;
  }

let length t = t.count
let is_empty t = t.count = 0
let total_added t = t.total_added
let max_occupancy t = t.max_count
let mem t id = Key_tbl.mem t.by_id (Proto.Request.id_key id)

let capacity t = Array.length t.buf

let slot_at t logical = t.buf.(logical land (capacity t - 1))

let set_slot t logical s = t.buf.(logical land (capacity t - 1)) <- s

(* Drop leading tombstones so [head] points at a live slot (or reaches
   [tail]). *)
let rec trim t =
  if t.head < t.tail then begin
    let s = slot_at t t.head in
    if s.s_req = None then begin
      t.head <- t.head + 1;
      trim t
    end
  end

let grow t =
  let old_cap = capacity t in
  let live = t.tail - t.head in
  if live = old_cap then begin
    let ncap = old_cap * 2 in
    let nbuf = Array.make ncap { s_seq = -1; s_req = None } in
    for i = 0 to live - 1 do
      nbuf.((t.head + i) land (ncap - 1)) <- slot_at t (t.head + i)
    done;
    t.buf <- nbuf
  end

let insert_resurrected t seq slot =
  let rec go = function
    | [] -> [ (seq, slot) ]
    | ((s, _) as hd) :: rest when s < seq -> hd :: go rest
    | rest -> (seq, slot) :: rest
  in
  t.resurrected <- go t.resurrected

let add t ~seq (r : Proto.Request.t) =
  let key = Proto.Request.id_key r.id in
  if Key_tbl.mem t.by_id key then false
  else begin
    let slot = { s_seq = seq; s_req = Some r } in
    if seq > t.last_seq then begin
      grow t;
      set_slot t t.tail slot;
      t.tail <- t.tail + 1;
      t.last_seq <- seq
    end
    else insert_resurrected t seq slot;
    Key_tbl.replace t.by_id key slot;
    t.count <- t.count + 1;
    t.total_added <- t.total_added + 1;
    if t.count > t.max_count then t.max_count <- t.count;
    true
  end

let remove t id =
  let key = Proto.Request.id_key id in
  match Key_tbl.find_opt t.by_id key with
  | None -> None
  | Some slot ->
      let r = slot.s_req in
      slot.s_req <- None;
      Key_tbl.remove t.by_id key;
      t.count <- t.count - 1;
      t.resurrected <- List.filter (fun (_, s) -> s.s_req <> None) t.resurrected;
      trim t;
      r

let resurrect t ~seq r = ignore (add t ~seq r)

let oldest_seq t =
  trim t;
  let buf_seq = if t.head < t.tail then Some (slot_at t t.head).s_seq else None in
  match (t.resurrected, buf_seq) with
  | [], None -> None
  | [], Some s -> Some s
  | (rs, _) :: _, None -> Some rs
  | (rs, _) :: _, Some s -> Some (min rs s)

let pop_oldest t =
  trim t;
  let from_buf () =
    if t.head < t.tail then begin
      let slot = slot_at t t.head in
      t.head <- t.head + 1;
      match slot.s_req with
      | Some r ->
          slot.s_req <- None;
          Key_tbl.remove t.by_id (Proto.Request.id_key r.Proto.Request.id);
          t.count <- t.count - 1;
          Some r
      | None -> None (* trim guarantees live, but stay safe *)
    end
    else None
  in
  match t.resurrected with
  | (rs, slot) :: rest ->
      let buf_seq = if t.head < t.tail then Some (slot_at t t.head).s_seq else None in
      if buf_seq = None || rs < Option.get buf_seq then begin
        t.resurrected <- rest;
        match slot.s_req with
        | Some r ->
            slot.s_req <- None;
            Key_tbl.remove t.by_id (Proto.Request.id_key r.Proto.Request.id);
            t.count <- t.count - 1;
            Some r
        | None -> from_buf ()
      end
      else from_buf ()
  | [] -> from_buf ()

let peek_oldest t =
  trim t;
  let buf_req () =
    if t.head < t.tail then (slot_at t t.head).s_req else None
  in
  match t.resurrected with
  | (rs, slot) :: _ ->
      let buf_seq = if t.head < t.tail then Some (slot_at t t.head).s_seq else None in
      if buf_seq = None || rs < Option.get buf_seq then slot.s_req else buf_req ()
  | [] -> buf_req ()

let cut t ~max =
  let out = ref [] in
  let k = ref 0 in
  let continue = ref true in
  while !continue && !k < max do
    match pop_oldest t with
    | Some r ->
        out := r :: !out;
        incr k
    | None -> continue := false
  done;
  Array.of_list (List.rev !out)

let clear t =
  (* Keep [last_seq] (arrival keys keep increasing across the clear) and the
     observability counters; only the pending contents go. *)
  t.head <- 0;
  t.tail <- 0;
  t.buf <- Array.make initial_capacity { s_seq = -1; s_req = None };
  Key_tbl.reset t.by_id;
  t.resurrected <- [];
  t.count <- 0

let iter f t =
  (* Iterate in sequence order: merge buffer and resurrected list. *)
  let res = ref t.resurrected in
  for i = t.head to t.tail - 1 do
    let s = slot_at t i in
    (match s.s_req with
    | Some _ ->
        (* Emit any resurrected entries older than this slot first. *)
        let rec drain () =
          match !res with
          | (rs, rslot) :: rest when rs < s.s_seq ->
              (match rslot.s_req with Some r -> f r | None -> ());
              res := rest;
              drain ()
          | _ -> ()
        in
        drain ();
        (match s.s_req with Some r -> f r | None -> ())
    | None -> ())
  done;
  List.iter (fun (_, s) -> match s.s_req with Some r -> f r | None -> ()) !res
