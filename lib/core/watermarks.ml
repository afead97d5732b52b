(* Per-client delivery tracking with an allocation-free ring bitmap.

   For each client we keep [floor] (length of the contiguously delivered
   timestamp prefix) and a ring of bits for timestamps in
   [floor, floor + capacity).  The watermark validity check bounds accepted
   timestamps to [floor + window), and floors across nodes diverge by at
   most the in-flight window, so [capacity = 4 * window] comfortably covers
   every timestamp that can be delivered while its bit is still in range.
   The rare overflow advances the floor to keep the triggering timestamp in
   range, clearing the ring slots whose timestamps fell below the new floor
   (stale bits would alias fresh timestamps and answer false-positive
   [delivered], silently suppressing live requests).  Timestamps forced
   below the floor read as delivered, which only risks suppressing a
   duplicate proposal attempt — never a double delivery. *)

module Key_tbl = Proto.Request.Key_tbl

type client_state = {
  mutable floor : int;
  bits : Bytes.t;  (* ring bitmap over [floor, floor + capacity) *)
}

type t = { window : int; capacity : int; clients : client_state Key_tbl.t }

let create ~window =
  assert (window > 0);
  { window; capacity = 4 * window; clients = Key_tbl.create 64 }

(* [find], not [find_opt]: a client is missing once per node, and the hit
   then allocates nothing. *)
let state t client =
  match Key_tbl.find t.clients client with
  | s -> s
  | exception Not_found ->
      let s = { floor = 0; bits = Bytes.make ((t.capacity + 7) / 8) '\000' } in
      Key_tbl.replace t.clients client s;
      s

let get_bit t s ts =
  let i = ts mod t.capacity in
  Char.code (Bytes.unsafe_get s.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit t s ts v =
  let i = ts mod t.capacity in
  let byte = Char.code (Bytes.unsafe_get s.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set s.bits (i lsr 3) (Char.unsafe_chr byte)

let note_delivered t (id : Proto.Request.id) =
  let s = state t id.client in
  if id.ts >= s.floor then
    if id.ts < s.floor + t.capacity then begin
      set_bit t s id.ts true;
      (* Advance the floor over the contiguous delivered prefix, clearing
         bits as they leave the window. *)
      while get_bit t s s.floor do
        set_bit t s s.floor false;
        s.floor <- s.floor + 1
      done
    end
    else begin
      (* Out of ring range (cannot happen while acceptance windows hold);
         degrade safely by advancing the floor — everything below the new
         floor is forced delivered, which can only suppress, never
         duplicate.  Bits for timestamps that fall below the new floor are
         stale: their ring slots now alias timestamps of the new window, so
         a leftover bit would answer a false-positive [delivered] for a
         fresh timestamp and silently suppress it forever.  Clear exactly
         those slots; bits in the surviving overlap keep denoting the same
         timestamp and stay. *)
      let new_floor = id.ts + 1 - t.capacity in
      let stale = new_floor - s.floor in
      if stale >= t.capacity then Bytes.fill s.bits 0 (Bytes.length s.bits) '\000'
      else
        for ts = s.floor to s.floor + stale - 1 do
          set_bit t s ts false
        done;
      s.floor <- new_floor;
      (* Record the delivery that triggered the degrade (the old code lost
         it: the new floor sits below [id.ts], so without its bit the id
         would read as not-delivered and could be delivered twice). *)
      set_bit t s id.ts true;
      while get_bit t s s.floor do
        set_bit t s s.floor false;
        s.floor <- s.floor + 1
      done
    end

let is_delivered t s ts = ts < s.floor || (ts < s.floor + t.capacity && get_bit t s ts)

let delivered t (id : Proto.Request.id) =
  match Key_tbl.find_opt t.clients id.client with
  | None -> false
  | Some s -> is_delivered t s id.ts

type status = Fresh | Delivered | Outside_window

let status t (id : Proto.Request.id) =
  let s = state t id.client in
  if is_delivered t s id.ts then Delivered
  else if id.ts < s.floor + t.window then Fresh
  else Outside_window

let floor t client = (state t client).floor
let window t = t.window
