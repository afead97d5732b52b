(** Cluster assembly and measurement for experiments.

    Builds a complete simulated deployment — engine, WAN, replicas wired to
    one of the seven systems the paper evaluates — and measures what the
    paper measures: end-to-end latency (submission until a reply quorum of
    f+1 nodes has delivered) and delivered throughput over 1-second bins.

    With {!enable_invariants} the cluster also owns the run's one
    invariant checker ({!Checker}, DESIGN.md §6): it feeds the checker
    every submission, per-node delivery, shed and give-up, and aborts the
    run at the first violation. *)

type system =
  | Iss of Core.Config.protocol  (** the paper's contribution *)
  | Single of Core.Config.protocol  (** single-leader baseline (Fixed [0]) *)
  | Mir  (** Mir-BFT behavioural model *)

val system_name : system -> string

type t

val engine : t -> Sim.Engine.t
val network : t -> Proto.Message.t Sim.Network.t
val nodes : t -> Core.Node.t array
val config : t -> Core.Config.t

val config_of_system :
  ?policy:Core.Config.leader_policy_kind ->
  ?tweak:(Core.Config.t -> Core.Config.t) ->
  system:system ->
  n:int ->
  unit ->
  Core.Config.t
(** The configuration {!create} runs [system] with, given the same [policy]
    and [tweak]: the protocol's preset, with leader 0 fixed for the
    single-leader baselines. *)

val create :
  ?engine:Sim.Engine.t ->
  ?policy:Core.Config.leader_policy_kind ->
  ?tweak:(Core.Config.t -> Core.Config.t) ->
  ?tracer:Obs.Tracer.t ->
  ?registry:Obs.Registry.t ->
  system:system ->
  n:int ->
  seed:int64 ->
  unit ->
  t
(** [engine] supplies an existing (fresh) simulation engine — needed when a
    tracer must be built against the same clock before the cluster exists;
    by default the cluster creates its own.  [policy] overrides the
    leader-selection policy for ISS systems (the default is the config
    preset's, i.e. BLACKLIST).  [tweak] patches the
    final configuration (ablations).  [tracer] threads the request-lifecycle
    probe through every node and the cluster's measurement hook (DESIGN.md
    §8); [registry] registers the standard per-node gauges (bucket-queue
    occupancy, commit queue depth, live SB instances, checkpoint lag, NIC
    backlogs) and cluster-wide counters against it.  Both default to off,
    leaving runs bit-identical to an uninstrumented build. *)

val start : t -> unit

(** {2 Fault injection (§6.4)}

    The crash primitives {!Faults.apply} compiles [Crash], [Recover] and
    [Crash_recover] specs to. *)

val crash_at : t -> node:int -> at:Sim.Time_ns.t -> unit
(** Crash: silence the node's network endpoint and halt its timers. *)

val recover_at : t -> node:int -> at:Sim.Time_ns.t -> unit
(** Crash-recovery: revive the node's network endpoint and un-halt it; the
    node keeps its durable pre-crash state and catches up via state
    transfer (see {!Core.Node.recover}). *)

(** {2 Active-malice adversary (DESIGN.md §10)} *)

val ensure_adversary : t -> Adversary.t
(** The cluster's adversary proxy, created on first use.  Until this is
    called, every node's send path is the direct network send — honest runs
    never pay for (or observe) the adversary layer. *)

val adversary : t -> Adversary.t option

val mark_byzantine : t -> int -> unit
(** Exempt a node from the checked invariants ({!Checker.set_byzantine})
    and from reply-quorum counting: the invariants quantify over correct
    nodes only.  {!Faults.apply} marks every node its schedule attacks. *)

(** {2 Invariant checking (chaos harness)} *)

exception Invariant_violation of string
(** Raised — aborting the simulation — with the simulated time and the
    checker's report when a checked invariant breaks. *)

val enable_invariants : t -> unit
(** Create the run's {!Checker} (from [n], the reply quorum and the
    client watermark window, with the nodes marked Byzantine so far) and
    feed it from now on.  A violation the checker records at a delivery or
    shed raises {!Invariant_violation} right there.  Call before {!start}.
    Off by default: the checker holds every submitted request id, which
    huge fault-free benchmark runs cannot afford.  Idempotent. *)

val check_liveness : t -> unit
(** Run {!Checker.finalize}: raises {!Invariant_violation} if any
    submitted request has neither reached its reply quorum nor explicitly
    given up its retry budget ({!note_gave_up}) — the report lists the
    first missing requests — or if an end-of-run structural check fails.
    Call after the engine has run past all faults plus a recovery bound.
    Raises [Invalid_argument] without {!enable_invariants}. *)

val checker : t -> Checker.t option
(** The checker {!enable_invariants} created, if any. *)

(** {2 Overload accounting (flow control)} *)

val note_gave_up : t -> Proto.Request.t -> unit
(** Record that a client exhausted its retry budget for this request and
    abandoned it.  Idempotent per request.  The liveness check accepts
    given-up requests as terminal. *)

val gave_up_count : t -> int
(** Requests explicitly abandoned via {!note_gave_up}. *)

val shed_total : t -> int
(** Requests shed by bounded admission, summed over all nodes. *)

val pushback_total : t -> int
(** Pushback notifications issued (advisory and shedding), summed over all
    nodes. *)

(** {2 Measurement} *)

val quorum_latencies : t -> Sim.Metrics.Histogram.t
(** Seconds from submission to reply quorum, one sample per request. *)

val throughput_series : t -> until:Sim.Time_ns.t -> float array
(** Quorum-delivered requests per second, 1-second bins. *)

val delivered_quorum : t -> int
(** Requests that reached their reply quorum so far. *)

val note_submitted : t -> Proto.Request.t -> unit
(** Workload bookkeeping: register a submitted request (for the delivered /
    offered accounting, and with the checker when invariants are on). *)

val submitted : t -> int

val reply_quorum : t -> int
(** f+1 for BFT systems, 1 for Raft. *)

val tracer : t -> Obs.Tracer.t option
(** The lifecycle tracer installed at {!create} time, if any — the workload
    records client-side [Submit] events against it. *)

val client_datacenter : t -> client:int -> int
(** Placement of a virtual client (round-robin over the datacenters). *)

val enable_delivery_tracking : t -> unit
(** Track per-request delivery (needed by the workload's resubmission
    sweeper in fault experiments; off by default to keep huge fault-free
    runs lean). *)

val request_delivered : t -> Proto.Request.t -> bool
(** Only meaningful after {!enable_delivery_tracking}. *)

val request_terminal : t -> client:int -> ts:int -> bool
(** The request reached a terminal state: delivered somewhere, or
    explicitly given up ({!note_gave_up}).  The modeled workload's client
    watermark gate ({!Workload.start}) keys on this.  Only meaningful
    after {!enable_delivery_tracking}. *)
