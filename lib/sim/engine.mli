(** Deterministic discrete-event simulation engine.

    One engine owns the virtual clock and the event queue.  All simulated
    activity — message deliveries, protocol timers, workload arrivals — is an
    event: a closure scheduled at a virtual time.  Events at equal times fire
    in insertion order, so a run is a pure function of the seed and the
    initial schedule.

    Storage is a hierarchical timing wheel with a binary-heap overflow
    ({!Event_queue}, DESIGN.md §11); extraction order is identical to the
    old all-heap engine — strict [(time, insertion seq)]. *)

type t

type timer_id
(** Handle for cancelling a scheduled event. *)

val create : unit -> t

val now : t -> Time_ns.t
(** Current virtual time. *)

val schedule : t -> delay:Time_ns.span -> (unit -> unit) -> timer_id
(** [schedule t ~delay f] runs [f] at [now t + delay].  A non-positive delay
    schedules for the current instant (after currently-queued same-time
    events).  Returns a handle usable with {!cancel}. *)

val schedule_at : t -> at:Time_ns.t -> (unit -> unit) -> timer_id
(** Absolute-time variant.  Times in the past are clamped to [now]. *)

val post : t -> delay:Time_ns.span -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule}: no cancellation handle escapes, which lets
    the engine recycle the event record after it fires.  The hot path for
    high-volume schedulers (timers, CPU charges, a node's loopback). *)

val post_at : t -> at:Time_ns.t -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule_at}. *)

(** {2 Owned events}

    A client that keeps many future firings of its own — the network, one
    per destination of a message in flight — can hold one event record and
    place it again after each firing, under a seq drawn earlier.  Such a
    firing takes exactly the place in the [(time, seq)] order that a
    {!post_at} made at the moment of the draw would take, so a schedule
    built this way replays bit-identically to one built from posts. *)

type owned
(** An event record its owner places again and again; the engine never
    recycles it nor drops its action. *)

val own : (unit -> unit) -> owned
(** A record that runs [action] each time it fires.  It is not queued. *)

val draw_seq : t -> int
(** The seq a {!post_at} made now would draw; the counter advances. *)

val place : t -> owned -> at:Time_ns.t -> seq:int -> unit
(** Queue the record to fire at [(at, seq)].  [seq] comes from {!draw_seq},
    [at] is not before {!now}, and the record is not queued already. *)

val cancel : t -> timer_id -> unit
(** Lazy cancellation: marks the event (its closure is released
    immediately) and the queue skips it later; tombstones are purged in
    bulk when they outnumber live events.  Cancelling an already-fired or
    already-cancelled timer is a no-op. *)

val pending : t -> int
(** Number of live events still queued.  Cancelled-but-unpurged tombstones
    are {e not} counted (they used to be, which over-reported queue depth
    under fault-injection runs that cancel many timers).  A queued owned
    record counts once, however many firings its owner keeps behind it: for
    the network, one per message record in flight, not one per
    destination. *)

val run : ?until:Time_ns.t -> t -> unit
(** Drains the event queue.  With [~until], stops once the next event would
    fire strictly after [until] and advances the clock to [until]; the
    clock never moves backwards, so a subsequent [run] with an earlier
    limit is a no-op rather than a time warp.  Without [~until], runs until
    the queue is empty. *)

val step : t -> bool
(** Executes the single next live event.  Returns [false] when no live
    events remain.  Cancelled events are skipped silently: they neither
    count as a step nor advance the clock. *)

val events_executed : t -> int
(** Total events executed so far (cancelled events excluded); useful for
    reporting simulation effort. *)

(** A one-shot timer that can be re-armed: at most one fire is pending.
    The one timer every protocol layer uses — orderers (through
    [Core.Orderer_intf]) and the node's batcher — so none of them holds a
    {!timer_id}. *)
module Timer : sig
  type engine := t
  type t

  val create : engine -> t
  (** A disarmed timer. *)

  val arm : t -> delay:Time_ns.span -> (unit -> unit) -> unit
  (** Run the action after [delay], cancelling any fire still pending. *)

  val cancel : t -> unit
  (** Disarm; a no-op when nothing is pending. *)

  val armed : t -> bool
  (** A fire is pending. *)
end
