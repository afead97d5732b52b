(** Cluster assembly and measurement for experiments.

    Builds a complete simulated deployment — engine, WAN, replicas wired to
    one of the seven systems the paper evaluates — and measures what the
    paper measures: end-to-end latency (submission until a reply quorum of
    f+1 nodes has delivered) and delivered throughput over 1-second bins.

    It is also the modeled clients' ({!Workload}) side of the wire: the
    client→node hop, the leader view they route by and what they heard.

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
    abandoned it.  Call once per request: each call counts.  The liveness
    check and {!request_terminal} accept given-up requests as terminal. *)

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

val submitted : t -> int

val reply_quorum : t -> int
(** f+1 for BFT systems, 1 for Raft. *)

(** {2 The modeled clients' side of the wire} *)

val note_submitted : t -> Proto.Request.t -> unit
(** Register a submitted request: count it, feed it to the checker if any,
    and trace its [Submit] at [submitted_at]. *)

val send_request : t -> at:Sim.Time_ns.t -> dst:int -> Proto.Request.t -> unit
(** One client→node copy sent at [at] (now or later): unless node [dst] is
    crashed, charge its public receive NIC and run {!Core.Node.submit} at
    [at] + the client→node propagation + that NIC's queueing delay. *)

val routing_view : t -> (int * Proto.Ids.node_id array) option
(** The epoch and bucket leaders a [Bucket_update] quorum tells a client:
    the live node's with the furthest epoch, or [None] if all are crashed.
    The array is the node's own: read it before the engine runs on. *)

val request_terminal : t -> Proto.Request.id -> bool
(** What the request's client has heard: the request reached its reply
    quorum, or the client gave it up ({!note_gave_up}).  Kept in one
    {!Core.Watermarks.t} (a floor and a ring per client), whose memory
    follows how far out of order requests end, not the run length.  The
    workload's resubmission sweeper and watermark gate read this. *)
