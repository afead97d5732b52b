(* Two-level hierarchical timing wheel + overflow heap.  See the .mli and
   DESIGN.md §11 for the architecture; the invariants that make the window
   arithmetic safe are spelled out inline below.

   Global order is strict (time, seq).  The structure never reorders live
   events relative to that order:

   - the ready heap holds exactly the events with time < ready_end;
   - level 0 holds events whose level-0 slot lies in [next0, win0_end),
     where the window is one aligned 1024-slot block (one level-1 slot), so
     array index = slot land 1023 is collision-free;
   - level 1 holds events whose level-1 slot lies in [next1, next1 + 1024)
     (a circular window, also collision-free);
   - the overflow heap holds the rest.

   Every boundary (ready_end, win0_end, next1) only moves forward, and
   events are only ever moved downward (overflow -> level 1 -> level 0 ->
   ready), so an event can never be scheduled behind the consumption
   frontier. *)

let slot_bits = 10
let n_slots = 1 lsl slot_bits (* 1024 slots per level *)
let slot_mask = n_slots - 1
let l0_bits = 12 (* level-0 slot width: 2^12 ns = 4.1 us *)
let l1_bits = l0_bits + slot_bits (* level-1 slot width: 2^22 ns = 4.2 ms *)

let flag_cancelled = 1
let flag_fired = 2
let flag_anon = 4
let flag_owned = 8

let noop () = ()

type event = {
  mutable time : int;
  mutable seq : int;
  mutable flags : int;
  mutable action : unit -> unit;
  mutable next : event;
}

let rec nil = { time = max_int; seq = -1; flags = 0; action = noop; next = nil }

(* ------------------------------------------------------------------ *)
(* Internal monomorphic event min-heap (ready set + overflow).  Vacated
   slots are overwritten with [nil] so popped events are collectable. *)

module Eheap = struct
  type h = { mutable data : event array; mutable n : int }

  let create () = { data = [||]; n = 0 }

  (* The one comparison of the whole engine: two int compares, no
     polymorphic [compare], no closure indirection. *)
  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h ev =
    let cap = Array.length h.data in
    if h.n = cap then begin
      let ndata = Array.make (if cap = 0 then 256 else cap * 2) nil in
      Array.blit h.data 0 ndata 0 h.n;
      h.data <- ndata
    end;
    let data = h.data in
    (* sift up *)
    let i = ref h.n in
    h.n <- h.n + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if less ev data.(parent) then begin
        data.(!i) <- data.(parent);
        i := parent
      end
      else continue := false
    done;
    data.(!i) <- ev

  let sift_down h i =
    let data = h.data and n = h.n in
    let ev = data.(i) in
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c = if r < n && less data.(r) data.(l) then r else l in
        if less data.(c) ev then begin
          data.(!i) <- data.(c);
          i := c
        end
        else continue := false
      end
    done;
    data.(!i) <- ev

  let pop h =
    let top = h.data.(0) in
    h.n <- h.n - 1;
    if h.n > 0 then begin
      h.data.(0) <- h.data.(h.n);
      sift_down h 0
    end;
    h.data.(h.n) <- nil;
    top

  (* Rebuild after a purge filtered the backing array in place. *)
  let heapify h =
    for i = (h.n / 2) - 1 downto 0 do
      sift_down h i
    done
end

(* ------------------------------------------------------------------ *)

type t = {
  mutable seq : int;
  ready : Eheap.h; (* events with time < ready_end *)
  mutable ready_end : int; (* = next0 lsl l0_bits *)
  slots0 : event array; (* heads of intrusive lists, [nil] = empty *)
  occ0 : int array; (* 32 words x 32 occupancy bits *)
  mutable count0 : int; (* events stored in level 0 (incl. tombstones) *)
  mutable next0 : int; (* absolute level-0 slot: next to consume *)
  mutable win0_end : int; (* absolute level-0 slot, exclusive: = next1 lsl slot_bits *)
  slots1 : event array;
  occ1 : int array;
  mutable count1 : int;
  mutable next1 : int; (* absolute level-1 slot: start of the level-1 window *)
  far : Eheap.h; (* overflow: beyond the level-1 window at insert time *)
  mutable live : int;
  mutable tombs : int; (* cancelled but still stored *)
  mutable free : event;
      (* freelist of fired anonymous records: uncapped, it grows once to the
         peak number of anonymous events in flight and then recycles *)
}

let create () =
  {
    seq = 0;
    ready = Eheap.create ();
    ready_end = 0;
    slots0 = Array.make n_slots nil;
    occ0 = Array.make (n_slots / 32) 0;
    count0 = 0;
    next0 = 0;
    win0_end = n_slots;
    slots1 = Array.make n_slots nil;
    occ1 = Array.make (n_slots / 32) 0;
    count1 = 0;
    next1 = 1;
    far = Eheap.create ();
    live = 0;
    tombs = 0;
    free = nil;
  }

let live t = t.live

(* ------------------------------------------------------------------ *)
(* Occupancy bitmaps: find the first set bit at index >= [from] (32-bit
   words, so plain ints hold them).  Returns -1 when none. *)

let ctz x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

let find_bit occ from =
  if from >= n_slots then -1
  else begin
    let w = ref (from lsr 5) in
    let masked = occ.(!w) land ((-1) lsl (from land 31)) in
    if masked <> 0 then (!w lsl 5) + ctz masked
    else begin
      incr w;
      let res = ref (-1) in
      let nwords = n_slots / 32 in
      while !res < 0 && !w < nwords do
        if occ.(!w) <> 0 then res := (!w lsl 5) + ctz occ.(!w);
        incr w
      done;
      !res
    end
  end

let set_bit occ i = occ.(i lsr 5) <- occ.(i lsr 5) lor (1 lsl (i land 31))
let clear_bit occ i = occ.(i lsr 5) <- occ.(i lsr 5) land lnot (1 lsl (i land 31))

(* ------------------------------------------------------------------ *)
(* Placement.  Precondition: ev.time >= the consumption frontier (the
   engine clamps schedule times to the clock, and internal re-placement
   only moves events downward). *)

let place t ev =
  let at = ev.time in
  if at < t.ready_end then Eheap.push t.ready ev
  else begin
    let s0 = at lsr l0_bits in
    if s0 < t.win0_end then begin
      let i = s0 land slot_mask in
      ev.next <- t.slots0.(i);
      t.slots0.(i) <- ev;
      set_bit t.occ0 i;
      t.count0 <- t.count0 + 1
    end
    else begin
      let s1 = at lsr l1_bits in
      if s1 - t.next1 < n_slots then begin
        let i = s1 land slot_mask in
        ev.next <- t.slots1.(i);
        t.slots1.(i) <- ev;
        set_bit t.occ1 i;
        t.count1 <- t.count1 + 1
      end
      else Eheap.push t.far ev
    end
  end

let draw_seq t =
  let seq = t.seq in
  t.seq <- seq + 1;
  seq

let alloc t ~time ~flags action =
  let seq = draw_seq t in
  if t.free != nil then begin
    let ev = t.free in
    t.free <- ev.next;
    ev.time <- time;
    ev.seq <- seq;
    ev.flags <- flags;
    ev.action <- action;
    ev.next <- nil;
    ev
  end
  else { time; seq; flags; action; next = nil }

let add t ~time action =
  let ev = alloc t ~time ~flags:0 action in
  t.live <- t.live + 1;
  place t ev;
  ev

let add_anon t ~time action =
  let ev = alloc t ~time ~flags:flag_anon action in
  t.live <- t.live + 1;
  place t ev

let own action = { time = max_int; seq = -1; flags = flag_owned; action; next = nil }

let add_owned t ev ~time ~seq =
  ev.time <- time;
  ev.seq <- seq;
  ev.flags <- flag_owned;
  t.live <- t.live + 1;
  place t ev

let release t ev =
  if ev.flags land flag_owned = 0 then begin
    ev.action <- noop;
    if ev.flags land flag_anon <> 0 then begin
      ev.next <- t.free;
      t.free <- ev
    end
  end

(* A tombstone encountered on a move/pop path: drop it for good. *)
let drop_tomb t ev =
  t.tombs <- t.tombs - 1;
  ev.action <- noop;
  ev.next <- nil

(* ------------------------------------------------------------------ *)
(* Advancing the frontier *)

(* Open level-1 slot [s]: make it the level-0 window and distribute its
   pending list (and any due overflow) downward. *)
let cascade t =
  let s_slot =
    if t.count1 > 0 then begin
      let i1 = t.next1 land slot_mask in
      let i = find_bit t.occ1 i1 in
      if i >= 0 then t.next1 + (i - i1)
      else begin
        (* circular window: wrapped part holds the larger absolute slots *)
        let i = find_bit t.occ1 0 in
        t.next1 + (n_slots - i1) + i
      end
    end
    else max_int
  in
  let s_far =
    if t.far.Eheap.n > 0 then begin
      let s = t.far.Eheap.data.(0).time lsr l1_bits in
      if s > t.next1 then s else t.next1
    end
    else max_int
  in
  let s = if s_slot <= s_far then s_slot else s_far in
  t.next1 <- s;
  t.next0 <- s lsl slot_bits;
  t.win0_end <- (s + 1) lsl slot_bits;
  t.ready_end <- t.next0 lsl l0_bits;
  (* Pull overflow events that fall inside the new level-1 window down
     into the wheel (their slot-s prefix lands directly in level 0). *)
  let win1_end = s + n_slots in
  while t.far.Eheap.n > 0 && t.far.Eheap.data.(0).time lsr l1_bits < win1_end do
    place t (Eheap.pop t.far)
  done;
  (if s = s_slot then begin
     let i = s land slot_mask in
     let ev = ref t.slots1.(i) in
     t.slots1.(i) <- nil;
     clear_bit t.occ1 i;
     while !ev != nil do
       let e = !ev in
       ev := e.next;
       t.count1 <- t.count1 - 1;
       if e.flags land flag_cancelled <> 0 then drop_tomb t e
       else begin
         e.next <- nil;
         place t e
       end
     done
   end);
  t.next1 <- s + 1

(* Move the next batch of events into the ready heap.  Returns false when
   the queue holds nothing at all (not even tombstones). *)
let advance t =
  if t.count0 > 0 then begin
    let i0 = t.next0 land slot_mask in
    (* count0 > 0 and all level-0 events live in [next0, win0_end), whose
       indices are >= i0 within the aligned block — the scan cannot miss. *)
    let i = find_bit t.occ0 i0 in
    let abs = t.next0 - i0 + i in
    let ev = ref t.slots0.(i) in
    t.slots0.(i) <- nil;
    clear_bit t.occ0 i;
    while !ev != nil do
      let e = !ev in
      ev := e.next;
      t.count0 <- t.count0 - 1;
      if e.flags land flag_cancelled <> 0 then drop_tomb t e
      else begin
        e.next <- nil;
        Eheap.push t.ready e
      end
    done;
    t.next0 <- abs + 1;
    t.ready_end <- t.next0 lsl l0_bits;
    true
  end
  else if t.count1 > 0 || t.far.Eheap.n > 0 then begin
    cascade t;
    true
  end
  else false

let rec peek t =
  if t.ready.Eheap.n > 0 then begin
    let top = t.ready.Eheap.data.(0) in
    if top.flags land flag_cancelled <> 0 then begin
      ignore (Eheap.pop t.ready);
      drop_tomb t top;
      peek t
    end
    else top
  end
  else if advance t then peek t
  else nil

let pop t =
  let ev = peek t in
  if ev != nil then begin
    ignore (Eheap.pop t.ready);
    ev.flags <- ev.flags lor flag_fired;
    t.live <- t.live - 1
  end;
  ev

(* ------------------------------------------------------------------ *)
(* Lazy cancellation with bounded tombstone load *)

let purge_heap t (h : Eheap.h) =
  let kept = ref 0 in
  for i = 0 to h.Eheap.n - 1 do
    let ev = h.Eheap.data.(i) in
    if ev.flags land flag_cancelled <> 0 then drop_tomb t ev
    else begin
      h.Eheap.data.(!kept) <- ev;
      incr kept
    end
  done;
  for i = !kept to h.Eheap.n - 1 do
    h.Eheap.data.(i) <- nil
  done;
  h.Eheap.n <- !kept;
  Eheap.heapify h

let purge_level t slots occ sub =
  for i = 0 to n_slots - 1 do
    if slots.(i) != nil then begin
      (* Unlink cancelled events in place; preserve list structure for the
         survivors (order within a slot is irrelevant — the ready heap
         re-orders by (time, seq)). *)
      let rec keep ev =
        if ev == nil then nil
        else if ev.flags land flag_cancelled <> 0 then begin
          let rest = ev.next in
          sub t;
          drop_tomb t ev;
          keep rest
        end
        else begin
          ev.next <- keep ev.next;
          ev
        end
      in
      slots.(i) <- keep slots.(i);
      if slots.(i) == nil then clear_bit occ i
    end
  done

let purge t =
  purge_heap t t.ready;
  purge_heap t t.far;
  purge_level t t.slots0 t.occ0 (fun t -> t.count0 <- t.count0 - 1);
  purge_level t t.slots1 t.occ1 (fun t -> t.count1 <- t.count1 - 1)

let cancel t ev =
  if ev != nil && ev.flags land (flag_cancelled lor flag_fired) = 0 then begin
    ev.flags <- ev.flags lor flag_cancelled;
    ev.action <- noop;
    (* the closure is dead now even though the record lingers *)
    t.live <- t.live - 1;
    t.tombs <- t.tombs + 1;
    if t.tombs > 64 && t.tombs >= 2 * t.live then purge t
  end
