(* Per-client delivery and proposal tracking, one flat block per client.

   A client's record is one [int array], [| client; floor; ring |]: the
   ring's L slots (L a power of two) cover [floor, floor + L), the slot of
   [ts] at [2 + (ts land (L - 1))] holding [no_proposal] (-1, nothing),
   [done_] (-2, delivered above the floor) or the sn ([>= 0]) the request
   was proposed at this epoch.  A ring starts at 2 slots, or at the first
   noted timestamp, and doubles when a delivery or a proposal lands past
   it, so the tracker is exact.  Slots reset as the floor passes them.

   Blocks sit in an open-addressed table, found by one linear probe on the
   client id in slot 0; it doubles at load 1/2 and never deletes.  Not a
   dense array by client id: the workload's ids start at 100_000 and a
   Byzantine node may make one up, so a direct index would cost slots up to
   the largest id, where the table follows the clients a node has seen. *)

(* [blocks] has a power-of-two length; [unknown] marks an empty slot. *)
type t = { window : int; mutable blocks : int array array; mutable count : int }

let no_proposal = -1
let done_ = -2

(* Every empty table slot, and what a read sees for a client without a
   block: floor 0, an empty ring.  Only [insert] adds, and never this. *)
let unknown = [| min_int; 0 |]

let create ~window =
  assert (window > 0);
  { window; blocks = Array.make 64 unknown; count = 0 }

(* Multiply to spread the id's bits upwards, then fold the high half down. *)
let hash client = let h = client * 0x9E3779B97F4A7C1 in h lxor (h lsr 32)

(* The client's table index, or the empty one where its block would go. *)
let rec probe blocks client i =
  let b = Array.unsafe_get blocks i in
  if b == unknown || b.(0) = client then i
  else probe blocks client ((i + 1) land (Array.length blocks - 1))

let index t client = probe t.blocks client (hash client land (Array.length t.blocks - 1))
let lookup t client = t.blocks.(index t client)

(* Double the table, re-placing the block pointers. *)
let grow_table t =
  let old = t.blocks in
  t.blocks <- Array.make (2 * Array.length old) unknown;
  Array.iter (fun b -> if b != unknown then t.blocks.(index t b.(0)) <- b) old

let ring b = Array.length b - 2
let slot b ts = 2 + (ts land (ring b - 1))

(* The least of [len], [2 len], [4 len], ... that holds [ts] above [floor]. *)
let rec ring_len floor ts len = if ts - floor < len then len else ring_len floor ts (2 * len)

(* The client's table index, adding a block on its first note, its ring
   (2 slots or more) holding [ts]. *)
let rec insert t client ts =
  let i = index t client in
  if t.blocks.(i) != unknown then i
  else if 2 * (t.count + 1) > Array.length t.blocks then (grow_table t; insert t client ts)
  else begin
    let b = Array.make (2 + ring_len 0 ts 2) no_proposal in
    b.(0) <- client;
    b.(1) <- 0;
    t.blocks.(i) <- b;
    t.count <- t.count + 1;
    i
  end

(* The slot value of [ts]: [done_] below the floor, [no_proposal] past the ring. *)
let get b ts =
  let d = ts - b.(1) in
  if d < 0 then done_ else if d < ring b then b.(slot b ts) else no_proposal

(* The block at table index [i], its ring doubled until [ts] fits; the
   slots of [floor, floor + L) move to the new block. *)
let fit t i ts =
  let b = t.blocks.(i) in
  let floor = b.(1) in
  if ts - floor < ring b then b
  else begin
    let b' = Array.make (2 + ring_len floor ts (2 * ring b)) no_proposal in
    b'.(0) <- b.(0);
    b'.(1) <- floor;
    for ts = floor to floor + ring b - 1 do
      b'.(slot b' ts) <- b.(slot b ts)
    done;
    t.blocks.(i) <- b';
    b'
  end

let note_delivered t (id : Proto.Request.id) =
  let i = insert t id.client id.ts in
  if id.ts >= t.blocks.(i).(1) then begin
    let b = fit t i id.ts in
    b.(slot b id.ts) <- done_;
    (* Advance the floor over the delivered prefix, resetting its slots. *)
    while b.(slot b b.(1)) = done_ do
      b.(slot b b.(1)) <- no_proposal;
      b.(1) <- b.(1) + 1
    done
  end

let delivered t (id : Proto.Request.id) = get (lookup t id.client) id.ts = done_

type status = Fresh | Proposed | Delivered | Outside_window

let status t (id : Proto.Request.id) =
  let b = lookup t id.client in
  let v = get b id.ts in
  if v = done_ then Delivered
  else if id.ts >= b.(1) + t.window then Outside_window
  else if v = no_proposal then Fresh
  else Proposed

let proposed_at t (id : Proto.Request.id) = max no_proposal (get (lookup t id.client) id.ts)

(* Write [sn] into the slot of [id], whose client's table index is [i]
   and block [b], adding or growing the block as needed. *)
let write_sn t i b (id : Proto.Request.id) sn =
  let b = fit t (if b == unknown then insert t id.client id.ts else i) id.ts in
  b.(slot b id.ts) <- sn

let note_proposed t (id : Proto.Request.id) ~sn =
  assert (sn >= 0);
  let i = index t id.client in
  let b = t.blocks.(i) in
  if get b id.ts <> done_ && id.ts - b.(1) < t.window then write_sn t i b id sn

type proposal = Refused | Noted | Kept

let propose t (id : Proto.Request.id) ~sn =
  assert (sn >= 0);
  let i = index t id.client in
  let b = t.blocks.(i) in
  let v = get b id.ts in
  if v = done_ || id.ts - b.(1) >= t.window then Refused
  else if v = sn then Kept
  else if v <> no_proposal then Refused
  else begin
    write_sn t i b id sn;
    Noted
  end

let withdraw t (id : Proto.Request.id) =
  let b = lookup t id.client in
  let d = id.ts - b.(1) in
  if d >= 0 && d < ring b && b.(slot b id.ts) >= 0 then b.(slot b id.ts) <- no_proposal

let clear_proposals t =
  Array.iter
    (fun b ->
      for k = 2 to Array.length b - 1 do
        if b.(k) >= 0 then b.(k) <- no_proposal
      done)
    t.blocks

let floor t client = (lookup t client).(1)
let window t = t.window
