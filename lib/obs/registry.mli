(** Per-node metric registry (DESIGN.md §8).

    Named counters, gauges, and histograms, optionally attributed to a node,
    snapshotable at any simulated time.  Counters and gauges are thunks
    polled only at snapshot time; histograms are references to live
    {!Sim.Metrics.Histogram} values.  Registering metrics therefore never
    perturbs a run: the registry reads simulation state, it does not add
    work to the hot path. *)

type kind =
  | Counter of (unit -> int)
  | Gauge of (unit -> float)
  | Histogram of Sim.Metrics.Histogram.t

type t

val create : unit -> t

val counter : t -> ?node:int -> name:string -> (unit -> int) -> unit
val gauge : t -> ?node:int -> name:string -> (unit -> float) -> unit
val histogram : t -> ?node:int -> name:string -> Sim.Metrics.Histogram.t -> unit

val num_metrics : t -> int

val snapshot : t -> at:Sim.Time_ns.t -> Jsonx.t
(** [{"t": <seconds>, "metrics": [{"name", "node"?, "kind", ...}, ...]}] in
    registration order.  Histogram entries carry count/mean/p50/p95/p99/max. *)
