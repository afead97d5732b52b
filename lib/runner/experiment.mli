(** Experiment drivers: one function per measurement the paper reports.

    Every run is seeded and deterministic.  Results carry both the summary
    statistics the paper's figures plot and the raw 1-second throughput
    series for the time-series figures. *)

type result = {
  system : string;
  n : int;
  offered : float;  (** client request rate, req/s *)
  duration_s : float;
  submitted : int;
  delivered : int;  (** requests that reached a reply quorum *)
  throughput : float;  (** delivered req/s over the steady-state window *)
  mean_latency_s : float;
  p50_latency_s : float;
  p95_latency_s : float;
  p99_latency_s : float;
  series : float array;  (** delivered req/s per 1-second bin *)
  sim_events : int;
  net_messages : int;  (** node-to-node messages sent *)
  net_bytes : int;  (** node-to-node bytes sent (incl. framing) *)
  shed : int;  (** requests shed by bounded admission, all nodes *)
  pushback : int;  (** pushback notifications issued (advisory + shed) *)
  gave_up : int;  (** requests whose client exhausted its retry budget *)
}

val run :
  ?engine:Sim.Engine.t ->
  ?policy:Core.Config.leader_policy_kind ->
  ?tweak:(Core.Config.t -> Core.Config.t) ->
  ?faults:Faults.spec list ->
  ?scenario:Faults.t ->
  ?tracer:Obs.Tracer.t ->
  ?registry:Obs.Registry.t ->
  ?shape:Workload.shape ->
  ?retry_budget:int ->
  ?resubmit:bool ->
  system:Cluster.system ->
  n:int ->
  rate:float ->
  duration_s:float ->
  seed:int64 ->
  unit ->
  result
(** One measurement run: build the cluster, inject faults, offer load at
    [rate] for [duration_s] simulated seconds, report steady-state numbers
    (the first 5 s are excluded from the throughput average; the series
    keeps everything).

    [faults] (the paper's figure faults) are validated ({!Faults.validate},
    raising [Invalid_argument] on a bad schedule) and compiled by
    {!Faults.apply}; the run is measured as is, unchecked.  [scenario] runs
    a declarative fault schedule under the chaos harness: the schedule is
    validated and compiled the same way, cross-node invariant checking is
    enabled (raising {!Cluster.Invariant_violation} on a safety breach), the
    run is extended past the schedule's heal time plus
    {!Faults.liveness_grace_s}, and liveness — every submitted request
    delivered — is asserted at the end.

    [shape], [retry_budget] and [resubmit] pass through to
    {!Workload.start}; [resubmit] defaults to on exactly when faults or a
    chaos scenario are present (overload runs set it explicitly so shed
    requests get re-driven until delivered or out of budget).  The run seed
    doubles as the workload shape seed. *)

val peak_throughput :
  ?engine:Sim.Engine.t ->
  ?tweak:(Core.Config.t -> Core.Config.t) ->
  ?tracer:Obs.Tracer.t ->
  ?registry:Obs.Registry.t ->
  system:Cluster.system ->
  n:int ->
  duration_s:float ->
  seed:int64 ->
  unit ->
  result
(** Peak throughput before saturation (Fig. 5's y-axis): over-saturate the
    system and measure the delivered rate. *)

val saturation_estimate : Cluster.system -> n:int -> float
(** The offered load used to over-saturate each system (≈1.3× its
    analytical ceiling in this simulator). *)

val pp_result : Format.formatter -> result -> unit

val result_to_json : ?series:bool -> result -> Obs.Jsonx.t
(** The result as a JSON object (field names mirror the record, with units
    suffixed).  [series] additionally includes the per-second throughput
    series; off by default to keep figure files small. *)

(** {2 Overload sweep (bounded admission)} *)

type sweep_point = {
  fraction : float;  (** offered load as a multiple of the analytical ceiling *)
  point : result;
  goodput : float;  (** delivered req/s over the steady-state window *)
}

type sweep = {
  ceiling : float;  (** analytical saturation estimate, req/s *)
  sweep_points : sweep_point list;  (** in increasing offered-load order *)
  peak_goodput : float;
  knee_fraction : float;
      (** the saturation knee: highest swept fraction the system still keeps
          up with (goodput within 5% of offered).  Past it goodput should
          stay flat near the peak — graceful degradation, not collapse *)
}

val overload_tweak : unit -> Core.Config.t -> Core.Config.t
(** The throttled configuration the overload experiments use: batch rate
    32/s × 64-request batches (analytical ceiling 2048 req/s), 64-entry
    epochs, and [Bounded] admission with 64-request buckets and
    [Reject_new] shedding. *)

val overload_ceiling : float
(** Analytical saturation of the {!overload_tweak} configuration, req/s. *)

val overload_sweep : unit -> sweep
(** Sweep offered load over 7 points from 0.25× to 2× the ceiling, 25 s
    each at seed 42, on a throttled 4-node ISS-PBFT with bounded admission,
    modeled-client retransmission and a 3-resend retry budget. *)

val sweep_to_json : sweep -> Obs.Jsonx.t
(** The sweep as the BENCH_overload.json figure object. *)
