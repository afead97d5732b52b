(** Request-lifecycle tracer (DESIGN.md §8).

    Records (request, phase, node, virtual time) events against the
    simulation clock as a request moves through the seven lifecycle phases:

    {v submit -> enqueue -> cut -> sb_broadcast -> commit -> deliver -> reply v}

    Overhead discipline: instrumentation sites hold a [t option]; with no
    tracer installed a site costs one pointer comparison and never
    allocates.  Sampling is deterministic ({!sampled}) and memory
    is bounded ([max_events]; excess events are counted, not stored), so a
    traced run of a given seed is reproducible and cannot exhaust the
    host. *)

type phase = Submit | Enqueue | Cut | Sb_broadcast | Commit | Deliver | Reply

val phase_name : phase -> string
val all_phases : phase list

type t

val create : ?sample:int -> ?max_events:int -> engine:Sim.Engine.t -> unit -> t
(** [sample] keeps one request in [sample] (default 1: all); [max_events]
    bounds stored events (default 262144). *)

val sampled : t -> req:int -> bool
(** Whether events for this request key are recorded: whether the key,
    multiplicatively mixed so that client and timestamp bits both count,
    is a multiple of [sample].  Lets callers skip building event arguments
    for unsampled requests. *)

val event : t -> req:int -> node:int -> phase -> unit
(** Record a phase event at the current virtual time.  [node] is the
    observing node id (-1 for the client/workload side). *)

val event_once : t -> req:int -> node:int -> phase -> unit
(** Like {!event} but records only the first occurrence of (req, phase) —
    used for phases that retransmissions can repeat (cut, SB broadcast). *)

val record : t -> req:int -> node:int -> at:Sim.Time_ns.t -> phase -> unit
(** Explicit-timestamp variant (e.g. the reply phase is recorded at
    delivery time + reply propagation). *)

val num_events : t -> int
val dropped : t -> int

val iter : t -> (req:int -> node:int -> at:Sim.Time_ns.t -> phase -> unit) -> unit
(** In recording order. *)

val write_jsonl : t -> out_channel -> unit
(** One JSON object per line: {["{"req":..,"phase":..,"node":..,"t":..}"]},
    with a final [{"dropped_events":n}] line if the event cap was hit. *)

val to_jsonl_string : t -> string

val breakdown : t -> (string * Sim.Metrics.Histogram.t) list
(** Per-transition latency histograms (seconds), one per adjacent phase
    pair plus end-to-end [submit -> reply], using each request's first
    occurrence of each phase. *)

val pp_breakdown : Format.formatter -> t -> unit
