(** Measurement primitives for experiments.

    - {!Histogram} records individual samples (e.g. request latencies) and
      reports count / mean / percentiles.
    - {!Series} bins a counter over fixed time windows (e.g. throughput over
      1-second intervals as in the paper's Figures 9, 10 and 12). *)

module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0,100\]] by nearest-rank on the sorted
      samples; 0 when empty.  Sorting is cached between additions. *)

  val min : t -> float
  val max : t -> float
end

module Series : sig
  type t

  val create : bin:Time_ns.span -> t
  (** Bin width, e.g. [Time_ns.sec 1]. *)

  val add : t -> at:Time_ns.t -> float -> unit
  val bins : t -> until:Time_ns.t -> float array
  (** Per-bin sums covering [\[0, until)]; bins with no samples are 0. *)

  val rate_per_sec : t -> until:Time_ns.t -> float array
  (** Per-bin sums normalized to events per second. *)
end
