(** Cluster assembly and measurement for experiments.

    Builds a complete simulated deployment — engine, WAN, replicas wired to
    one of the seven systems the paper evaluates — and measures what the
    paper measures: end-to-end latency (submission until a reply quorum of
    f+1 nodes has delivered) and delivered throughput over 1-second bins. *)

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

(** {2 Fault injection (§6.4)} *)

val crash_at : t -> node:int -> at:Sim.Time_ns.t -> unit
(** Crash: silence the node's network endpoint and halt its timers. *)

val recover_at : t -> node:int -> at:Sim.Time_ns.t -> unit
(** Crash-recovery: revive the node's network endpoint and un-halt it; the
    node keeps its durable pre-crash state and catches up via state
    transfer (see {!Core.Node.recover}). *)

val crash_epoch_end : t -> node:int -> unit
(** Schedule a crash just before the node would propose the last sequence
    number of its epoch-0 segment — the paper's worst case for epoch
    duration. *)

val set_stragglers : t -> int list -> unit
(** Byzantine stragglers (§6.4.2). *)

(** {2 Active-malice adversary (DESIGN.md §10)} *)

val ensure_adversary : t -> Adversary.t
(** The cluster's adversary proxy, created on first use.  Until this is
    called, every node's send path is the direct network send — honest runs
    never pay for (or observe) the adversary layer. *)

val adversary : t -> Adversary.t option

val mark_byzantine : t -> int -> unit
(** Exempt a node from the cross-node safety / exactly-once invariants and
    from reply-quorum counting: the checked invariants quantify over correct
    nodes only.  {!Faults.apply} marks every node its schedule attacks. *)

(** {2 Invariant checking (chaos harness)} *)

exception Invariant_violation of string
(** Raised — aborting the simulation — with a readable report when a checked
    invariant breaks. *)

val enable_invariants : t -> unit
(** Turn on cross-node invariant checking (implies delivery tracking):
    {ul
    {- {b safety}: no two non-halted nodes deliver different batches (or the
       same batch with different request sequence numbers) at the same log
       position — checked on every delivery;}
    {- {b exactly-once}: no node delivers the same request twice — checked on
       every delivery;}
    {- {b liveness}: every workload-submitted request reaches its reply
       quorum — checked by {!check_liveness} once the run (faults plus a
       grace period) has completed.}}
    Off by default: the bookkeeping holds every submitted request id, which
    huge fault-free benchmark runs cannot afford. *)

val check_liveness : t -> unit
(** Raises {!Invariant_violation} listing the first missing requests if any
    submitted request has neither reached its reply quorum nor explicitly
    given up its retry budget ({!note_gave_up}).  Call after the engine has
    run past all faults plus a recovery bound. *)

(** {2 Overload accounting (flow control)} *)

val note_gave_up : t -> Proto.Request.t -> unit
(** Record that a client exhausted its retry budget for this request and
    abandoned it.  Idempotent per request.  The liveness check accepts
    given-up requests as terminal; the give-up observer fires once. *)

val gave_up_count : t -> int
(** Requests explicitly abandoned via {!note_gave_up}. *)

val shed_total : t -> int
(** Requests shed by flow-control admission, summed over all nodes. *)

val pushback_total : t -> int
(** Pushback notifications issued (advisory and shedding), summed over all
    nodes. *)

val set_shed_observer : t -> (node:int -> shed:bool -> Proto.Request.t -> unit) -> unit
(** Install a hook fired on every node-side pushback event: [shed = true]
    for an actual drop (admission refusal or drop-oldest eviction),
    [shed = false] for the advisory watermark warning.  The conformance
    harness records shed events through this; at most one observer.  Fires
    only when [flow_control] is enabled. *)

val set_give_up_observer : t -> (Proto.Request.t -> unit) -> unit
(** Install a hook fired once per request abandoned via {!note_gave_up};
    at most one observer. *)

(** {2 Measurement} *)

val quorum_latencies : t -> Sim.Metrics.Histogram.t
(** Seconds from submission to reply quorum, one sample per request. *)

val throughput_series : t -> until:Sim.Time_ns.t -> float array
(** Quorum-delivered requests per second, 1-second bins. *)

val delivered_quorum : t -> int
(** Requests that reached their reply quorum so far. *)

val note_submitted : t -> Proto.Request.t -> unit
(** Workload bookkeeping: register a submitted request (for the delivered /
    offered accounting). *)

val submitted : t -> int

val reply_quorum : t -> int
(** f+1 for BFT systems, 1 for Raft. *)

val tracer : t -> Obs.Tracer.t option
(** The lifecycle tracer installed at {!create} time, if any — the workload
    records client-side [Submit] events against it. *)

val client_datacenter : t -> client:int -> int
(** Placement of a virtual client (round-robin over the datacenters). *)

val set_delivery_observer :
  t -> (node:int -> sn:int -> first_request_sn:int -> Proto.Batch.t -> unit) -> unit
(** Install a hook called on {e every} per-node batch delivery (before the
    quorum accounting).  The conformance harness records the complete
    per-node delivered sequences through this; at most one observer. *)

val set_submission_observer : t -> (Proto.Request.t -> unit) -> unit
(** Install a hook called for every workload-submitted request (from
    {!note_submitted}).  The conformance harness builds its reference
    workload set through this; at most one observer. *)

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
