(** The simulation engine's event store: a two-level hierarchical timing
    wheel with a binary-heap overflow, replacing the old single binary heap.

    Profile shape (see DESIGN.md §11): simulator load is timer-dominated and
    near-future — network deliveries microseconds-to-milliseconds out,
    protocol timers milliseconds-to-seconds out — with a long tail of
    far-future events (liveness sweeps, epoch timeouts).  The wheel gives
    O(1) insert/extract for everything inside its ~4 s horizon; the
    overflow heap keeps correctness for the tail.

    - level 0: 1024 slots of 2^12 ns (4.1 µs) — one level-1 slot, 4.2 ms;
    - level 1: 1024 slots of 2^22 ns (4.2 ms) — horizon 2^32 ns ≈ 4.3 s;
    - overflow: binary min-heap, drained into the wheel as the level-1
      window advances over it.

    Ordering is strict (time, insertion seq) — identical to the old heap:
    equal-time events fire in insertion order, so a rebuilt engine replays
    bit-identical schedules (asserted by the conformance fingerprints).
    Comparisons are monomorphic int compares; no polymorphic [compare]
    anywhere on the hot path.

    Cancellation is lazy: {!cancel} marks the event and counts it as a
    tombstone; tombstones are skipped (and their closures released) when
    encountered, and a full purge sweep runs when tombstones outnumber live
    events, so mass-cancellation workloads neither inflate {!live} nor
    retain dead closures indefinitely. *)

type event = private {
  mutable time : int;  (** firing time, ns (= [Time_ns.t]) *)
  mutable seq : int;  (** insertion sequence: FIFO tie-break at equal time *)
  mutable flags : int;
  mutable action : unit -> unit;
  mutable next : event;  (** intrusive slot/freelist link *)
}
(** Fields are exposed read-only for the engine's hot path; all mutation
    goes through this interface. *)

type t

val nil : event
(** Sentinel returned by {!peek}/{!pop} on an empty queue (physical
    equality: [ev == nil]).  Never stored. *)

val create : unit -> t

val add : t -> time:int -> (unit -> unit) -> event
(** Insert an event; the result is a handle usable with {!cancel}. *)

val add_anon : t -> time:int -> (unit -> unit) -> unit
(** Fire-and-forget insert: no handle escapes, so the event record is
    recycled through an internal freelist after it fires ({!release}) —
    the allocation-free path for fire-and-forget timers.  The
    freelist is uncapped: it grows to the peak number of anonymous events
    in flight, after which inserts allocate nothing. *)

val draw_seq : t -> int
(** Hand out the seq the next insert would take, and advance the counter:
    the seq {!add} or {!add_anon} would have drawn at this moment. *)

val own : (unit -> unit) -> event
(** A record its caller owns, outside any queue, with a fixed action.  It
    is inserted with {!add_owned}, as often as the owner likes (once at a
    time), and never recycled: {!release} leaves it and its action alone. *)

val add_owned : t -> event -> time:int -> seq:int -> unit
(** Insert an owned record under an explicit [(time, seq)].  [seq] must
    come from {!draw_seq} of this queue, and [(time, seq)] must not lie
    behind the last popped event: the record then takes exactly the place
    an event added at the moment [seq] was drawn would hold. *)

val cancel : t -> event -> unit
(** Lazily cancel.  No-op on already-fired or already-cancelled events. *)

val live : t -> int
(** Number of pending events, excluding cancelled tombstones. *)

val peek : t -> event
(** Earliest live event without removing it ([nil] when empty).  Skips and
    releases any cancelled events in front of it. *)

val pop : t -> event
(** Remove and return the earliest live event ([nil] when empty), marking
    it fired.  The caller must read [action] and then call {!release}. *)

val release : t -> event -> unit
(** Drop a popped event's closure (so the GC can reclaim whatever it
    captured) and recycle the record if it was anonymous.  An owned record
    is left as it is. *)
