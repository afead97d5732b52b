(** An ISS replica: the Manager/Orderer assembly of paper §4.1.

    The node owns the log, the bucket queues, epoch advancement, leader
    selection and batching (with rate limiting).  Ordering itself is
    delegated to per-segment SB instances created through an
    {!orderer_factory} — this is where PBFT, HotStuff or Raft plug in.
    Checkpoints and state transfer (§3.5) live in {!Log}: the node signs
    and sends votes and replies, and acts on what Log decides — orderer
    GC, commits of transferred entries, checkpoint jumps and the lag
    check.

    The node is transport- and simulator-agnostic: it receives [send] (and
    optionally [broadcast]) functions and a {!Orderer_intf.Clock.t}, and
    exposes {!on_message}.  It asks that clock for the time and for every
    delay and timer, and hands it unchanged to each orderer's ctx.  The runner wires them to the
    simulated network and builds one clock per engine; a test can call
    {!on_message} directly. *)

type t

type orderer_factory = Orderer_intf.ctx -> Segment.t -> Orderer_intf.instance

type hooks = {
  on_batch_deliver : t -> sn:int -> first_request_sn:int -> Proto.Batch.t -> unit;
      (** Fired once per non-empty batch as the delivery frontier passes it,
          in log order.  Request [k] of the batch has global request
          sequence number [first_request_sn + k] (Eq. 2).  This is the
          high-throughput measurement hook. *)
  on_deliver : (t -> Log.delivery -> unit) option;
      (** Optional per-request delivery events, derived from the batch hook
          (reply to a client, execute against an application state machine).
          [None] skips the per-request iteration entirely. *)
  on_duplicate : (t -> Proto.Request.t -> unit) option;
      (** Fired when a submitted request is refused because this node already
          delivered it — a client retransmission whose replies were lost.
          §4.3 replicas answer from their reply cache here; a deployment
          that sends replies from [on_deliver] should re-send one. *)
  on_epoch_start :
    t -> epoch:int -> leaders:Proto.Ids.node_id array -> bucket_leaders:Proto.Ids.node_id array -> unit;
      (** Fired when the node enters an epoch; [bucket_leaders.(b)] is the
          leader bucket [b] is assigned to (what §4.3 broadcasts to
          clients). *)
  epoch_gate : (t -> epoch:int -> (unit -> unit) -> unit) option;
      (** When set, epoch [e > 0] only starts once the gate invokes the
          continuation — the hook the Mir-BFT model uses to stall epoch
          transitions behind an epoch primary.  [None]: start immediately. *)
  on_pushback :
    (t -> Proto.Request.t -> retry_after:Sim.Time_ns.span -> shed:bool -> unit) option;
      (** Fired when bounded admission pushes back on a request ([Busy] on
          the wire): [shed = true] means the request was dropped at admission
          (or evicted by the drop-oldest policy), [shed = false] is the
          advisory warning a bucket sends once it is three-quarters full —
          the request is still queued.
          [retry_after] is the server-suggested backoff floor.  No client
          hears of it: the runner only reports sheds to the invariant
          checker and ignores [retry_after]. *)
}

val default_hooks : hooks

val create :
  config:Config.t ->
  id:Proto.Ids.node_id ->
  clock:Orderer_intf.Clock.t ->
  send:(dst:int -> Proto.Message.t -> unit) ->
  ?broadcast:(Proto.Message.t -> unit) ->
  orderer_factory:orderer_factory ->
  ?hooks:hooks ->
  ?tracer:Obs.Tracer.t ->
  unit ->
  t
(** [send] carries a message to one other node.  [broadcast], when given,
    carries one to every other node at once ({!Sim.Network.broadcast}); by
    default it is [send] to each in id order, which the network cannot
    tell apart.  [tracer] installs the request-lifecycle probe (DESIGN.md
    §8): the node records enqueue / cut / SB-broadcast / commit / deliver
    events for sampled requests.  Omitted (the default), every
    instrumentation site reduces to one pointer comparison and the run is
    bit-identical to an untraced one. *)

val start : t -> unit
(** Enter epoch 0 and begin ordering. *)

val on_message : t -> src:int -> Proto.Message.t -> unit

val submit : t -> Proto.Request.t -> unit
(** Local request injection — what a [Request_msg] arrival does, minus the
    network.  The runner's modeled clients use this; the full client path
    goes through {!on_message}. *)

val halt : t -> unit
(** Crash the node: it stops reacting to messages and timers.  (The runner
    additionally severs its network endpoint.) *)

val recover : t -> unit
(** Crash-recovery: un-halt the node and rejoin the cluster.  The node keeps
    its pre-crash durable state (log, checkpoints, queues — the crash model
    is fail-recover with stable storage), restarts its batcher, and
    catches up on everything it missed by requesting state transfer from
    f+1 peers; the lag check, re-armed to one period from the recovery,
    then keeps pulling stabilized epochs until it draws level and
    participates normally again.  No-op when not
    halted.  (The runner must also {!Sim.Network.recover} its endpoint.) *)

val is_halted : t -> bool

val set_straggler : t -> bool -> unit
(** Byzantine straggler mode (§6.4.2): the node delays its proposals to just
    under the suspicion timeout and proposes empty batches, while following
    the protocol otherwise. *)

(** {2 Introspection} *)

val id : t -> Proto.Ids.node_id
val config : t -> Config.t
val current_epoch : t -> int
val log : t -> Log.t

val watermarks : t -> Watermarks.t
(** Client windows, deliveries and this epoch's proposals; read it only. *)

val pending_requests : t -> int
(** Requests currently queued in this node's buckets. *)

val active_instances : t -> int
(** Live SB orderer instances (not yet garbage-collected by a stable
    checkpoint) — the obs instance-count gauge. *)

val bucket_queue_added : t -> int
(** Requests ever accepted into this node's bucket queues. *)

val bucket_queue_max_occupancy : t -> int
(** Highest occupancy any single bucket queue of this node has reached. *)

val checkpoint_lag : t -> int
(** Epochs between the newest stable checkpoint this node holds and the
    epoch it is working in; 0 when fully caught up. *)

val delivered_count : t -> int
(** Requests this node itself delivered.  Not [Log.total_delivered]: a
    checkpoint jump fast-forwards the log's cumulative count over
    state-transferred history this node never executed, which must not be
    reported as the node's own deliveries. *)

val auth_failures : t -> int
(** Messages dropped at ingress because their authenticator failed
    verification ({!Proto.Message.Garbled}) — evidence of a Byzantine
    sender on an authenticated channel. *)

val shed_count : t -> int
(** Requests this node's bounded admission dropped (reject-new refusals
    plus drop-oldest evictions).  Always 0 under [Unbounded] admission. *)

val pushback_count : t -> int
(** [Busy] pushback notifications this node issued, advisory and shedding
    alike.  Always 0 under [Unbounded] admission. *)

val epoch_leaders : t -> Proto.Ids.node_id array
(** Leaders of the node's current epoch. *)

val bucket_leaders : t -> Proto.Ids.node_id array
(** Current owner of each bucket, what the node's [Bucket_update] carries
    (for client leader detection).  The node's own array: do not mutate. *)
