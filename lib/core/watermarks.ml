(* Per-client delivery and proposal tracking with allocation-free rings.

   For each client we keep [floor] (length of the contiguously delivered
   timestamp prefix) and two rings over the timestamps above it, each
   indexed by [ts land (capacity - 1)]:
   - [bits], the delivered timestamps in [floor, floor + capacity).  It
     starts at 64 bits and doubles whenever a delivery lands beyond it, so
     the tracker is exact: [delivered] answers [true] precisely for the
     timestamps noted.  Acceptance windows keep deliveries within a few
     dozen timestamps of the floor, so a ring rarely grows.
   - [proposals], the sn each timestamp in [floor, floor + length) was
     proposed at this epoch, or [no_proposal].  It stays the shared empty
     array until the client's first proposal and then doubles on demand;
     only fresh timestamps are noted, so it never outgrows the window.
   Both rings clear a slot as the floor passes it, so the slot starts empty
   for the timestamp [capacity] above. *)

module Key_tbl = Proto.Request.Key_tbl

type client_state = {
  mutable floor : int;
  mutable bits : Bytes.t;  (* ring bitmap over [floor, floor + capacity) *)
  mutable proposals : int array;  (* ring of sns over [floor, floor + length) *)
}

type t = { window : int; clients : client_state Key_tbl.t }

let no_proposal = -1

let create ~window =
  assert (window > 0);
  { window; clients = Key_tbl.create 64 }

(* What a read sees for a client with no record: floor 0, nothing delivered,
   nothing proposed.  Only [state] inserts, and never this record. *)
let unknown = { floor = 0; bits = Bytes.empty; proposals = [||] }

(* [find], not [find_opt]: a client is missing once per node, and the hit
   then allocates nothing. *)
let lookup t client =
  match Key_tbl.find t.clients client with s -> s | exception Not_found -> unknown

let state t client =
  match Key_tbl.find t.clients client with
  | s -> s
  | exception Not_found ->
      let s = { floor = 0; bits = Bytes.make 8 '\000'; proposals = [||] } in
      Key_tbl.replace t.clients client s;
      s

let capacity bits = Bytes.length bits lsl 3

let get_bit bits ts =
  let i = ts land (capacity bits - 1) in
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit bits ts v =
  let i = ts land (capacity bits - 1) in
  let byte = Char.code (Bytes.unsafe_get bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set bits (i lsr 3) (Char.unsafe_chr byte)

(* Double the ring until [ts] fits, re-placing the bits of the old range. *)
let grow s ts =
  let old = s.bits in
  let bytes = ref (Bytes.length old) in
  while ts - s.floor >= !bytes lsl 3 do
    bytes := 2 * !bytes
  done;
  s.bits <- Bytes.make !bytes '\000';
  for ts = s.floor to s.floor + capacity old - 1 do
    if get_bit old ts then set_bit s.bits ts true
  done

let proposal_slot s ts = ts land (Array.length s.proposals - 1)

(* Double the proposal ring (2 slots at first) until [ts] fits, re-placing
   the sns of the old range. *)
let grow_proposals s ts =
  let old = s.proposals in
  let len = ref (max 2 (Array.length old)) in
  while ts - s.floor >= !len do
    len := 2 * !len
  done;
  s.proposals <- Array.make !len no_proposal;
  for ts = s.floor to s.floor + Array.length old - 1 do
    s.proposals.(proposal_slot s ts) <- old.(ts land (Array.length old - 1))
  done

let note_delivered t (id : Proto.Request.id) =
  let s = state t id.client in
  if id.ts >= s.floor then begin
    if id.ts - s.floor >= capacity s.bits then grow s id.ts;
    set_bit s.bits id.ts true;
    (* Advance the floor over the contiguous delivered prefix, clearing
       both rings' slots as they leave the window. *)
    while get_bit s.bits s.floor do
      set_bit s.bits s.floor false;
      if Array.length s.proposals > 0 then s.proposals.(proposal_slot s s.floor) <- no_proposal;
      s.floor <- s.floor + 1
    done
  end

let is_delivered s ts = ts < s.floor || (ts - s.floor < capacity s.bits && get_bit s.bits ts)
let delivered t (id : Proto.Request.id) = is_delivered (lookup t id.client) id.ts

(* The noted sn of a timestamp at or above the floor; a delivered one may
   still hold its slot until the floor passes it. *)
let noted s ts =
  if ts - s.floor < Array.length s.proposals then s.proposals.(proposal_slot s ts)
  else no_proposal

type status = Fresh | Proposed | Delivered | Outside_window

let status t (id : Proto.Request.id) =
  let s = lookup t id.client in
  if is_delivered s id.ts then Delivered
  else if id.ts >= s.floor + t.window then Outside_window
  else if noted s id.ts = no_proposal then Fresh
  else Proposed

let proposed_at t (id : Proto.Request.id) =
  let s = lookup t id.client in
  if is_delivered s id.ts then no_proposal else noted s id.ts

let note_proposed t (id : Proto.Request.id) ~sn =
  let s = state t id.client in
  if (not (is_delivered s id.ts)) && id.ts - s.floor < t.window then begin
    if id.ts - s.floor >= Array.length s.proposals then grow_proposals s id.ts;
    s.proposals.(proposal_slot s id.ts) <- sn
  end

let clear_proposals t =
  Key_tbl.iter
    (fun _ s -> Array.fill s.proposals 0 (Array.length s.proposals) no_proposal)
    t.clients

let floor t client = (lookup t client).floor
let window t = t.window
