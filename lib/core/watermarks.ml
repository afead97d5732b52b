(* Per-client delivery tracking with an allocation-free ring bitmap.

   For each client we keep [floor] (length of the contiguously delivered
   timestamp prefix) and a ring of bits for timestamps in
   [floor, floor + capacity), indexed by [ts land (capacity - 1)].  The
   capacity starts at 64 bits and doubles whenever a delivery lands beyond
   it, so the tracker is exact: [delivered] answers [true] precisely for the
   timestamps noted.  Acceptance windows keep deliveries within a few dozen
   timestamps of the floor, so a ring rarely grows. *)

module Key_tbl = Proto.Request.Key_tbl

type client_state = {
  mutable floor : int;
  mutable bits : Bytes.t;  (* ring bitmap over [floor, floor + capacity) *)
}

type t = { window : int; clients : client_state Key_tbl.t }

let create ~window =
  assert (window > 0);
  { window; clients = Key_tbl.create 64 }

(* [find], not [find_opt]: a client is missing once per node, and the hit
   then allocates nothing. *)
let state t client =
  match Key_tbl.find t.clients client with
  | s -> s
  | exception Not_found ->
      let s = { floor = 0; bits = Bytes.make 8 '\000' } in
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

let note_delivered t (id : Proto.Request.id) =
  let s = state t id.client in
  if id.ts >= s.floor then begin
    if id.ts - s.floor >= capacity s.bits then grow s id.ts;
    set_bit s.bits id.ts true;
    (* Advance the floor over the contiguous delivered prefix, clearing
       bits as they leave the window. *)
    while get_bit s.bits s.floor do
      set_bit s.bits s.floor false;
      s.floor <- s.floor + 1
    done
  end

let is_delivered s ts = ts < s.floor || (ts - s.floor < capacity s.bits && get_bit s.bits ts)

let delivered t (id : Proto.Request.id) =
  match Key_tbl.find t.clients id.client with
  | s -> is_delivered s id.ts
  | exception Not_found -> false

type status = Fresh | Delivered | Outside_window

let status t (id : Proto.Request.id) =
  let s = state t id.client in
  if is_delivered s id.ts then Delivered
  else if id.ts < s.floor + t.window then Fresh
  else Outside_window

let floor t client = (state t client).floor
let window t = t.window
