(** Simulated WAN with bandwidth-limited NICs.

    This is what makes the paper's headline result reproducible: a
    single-leader protocol's leader must serialize O(n) copies of every batch
    through one rate-limited NIC, so its throughput decays as 1/n, while ISS
    spreads proposals over all leaders' NICs.

    Model, per message:
    + the sender's outgoing NIC serializes it: it departs at
      [max(now, tx_free) + size/bandwidth];
    + it propagates for the topology latency between the two endpoints'
      datacenters, plus up to 2 ms of uniform jitter;
    + the receiver's incoming NIC serializes it symmetrically;
    + the receiver's handler runs at the resulting delivery time.

    Endpoints are small integers.  Each endpoint is either a [Node] or a
    [Client]; following the paper, nodes have two full-duplex NICs — a
    private one used for node↔node traffic and a public one for
    client↔node traffic — while clients have one.

    Failure injection: endpoints can be crashed and later recovered, pairs
    can be partitioned, a uniform drop probability can be set, and
    individual links can be given extra latency.  Failures are modeled from
    the point of view of the {e surviving} processes: a correct sender has
    no way to know that its peer is dead or unreachable, so it still pays
    the full transmission cost — only delivery is suppressed. *)

type 'a t
(** A network carrying payloads of type ['a]. *)

type category = Node | Client

val create : Engine.t -> rng:Rng.t -> 'a t
(** A network with the paper's testbed NICs: 1 Gbps per direction, 80
    framing bytes per message, and up to 2 ms of uniform jitter on each
    message's propagation delay, drawn from [rng]. *)

val add_endpoint :
  'a t ->
  id:int ->
  category:category ->
  datacenter:int ->
  handler:(src:int -> size:int -> 'a -> unit) ->
  unit
(** Registers endpoint [id].  [datacenter] indexes {!Topology.datacenters}.
    The handler is invoked at delivery time.  Endpoints live in an array
    indexed by id, so ids should be small; a negative or duplicate id
    raises [Invalid_argument]. *)

val send : 'a t -> src:int -> dst:int -> size:int -> 'a -> unit
(** [size] is the application payload size in bytes; framing overhead is
    added internally.  A crashed sender emits nothing.  Any other send
    consumes sender NIC bandwidth and counts towards {!messages_sent} /
    {!bytes_sent} regardless of the destination's fate: messages to a
    partitioned-away peer are lost in transit, and messages to a crashed
    peer are discarded on arrival (unless the peer recovered while the
    message was in flight). *)

val multicast : 'a t -> src:int -> dsts:int list -> size:int -> 'a -> unit
(** Point-to-point sends to each destination (no network-level multicast:
    each copy consumes sender bandwidth, exactly the single-leader cost). *)

val crash : 'a t -> int -> unit
(** Crash semantics: the endpoint stops sending (its [send]s are suppressed
    at zero cost — a dead process emits nothing) and stops receiving
    (messages addressed to it are discarded at arrival time).  Messages
    already in flight {e towards} a crashed endpoint are only discarded if
    the endpoint is still crashed when they arrive. *)

val recover : 'a t -> int -> unit
(** Clears the crash flag and resets the endpoint's NIC serialization
    horizons to the current time: a rebooted host starts with idle NICs —
    the pre-crash transmission backlog does not survive the reboot.
    Recovering a non-crashed endpoint is a no-op. *)

val set_partition : 'a t -> (int -> int) option -> unit
(** [set_partition t (Some group)] drops messages between endpoints whose
    [group] differs; [None] heals.  Cross-partition sends still consume
    sender bandwidth (the sender cannot observe the partition). *)

val set_drop_probability : 'a t -> float -> unit
(** Uniform i.i.d. message-drop probability in [\[0,1\]]. *)

val set_link_latency : 'a t -> (int -> int -> Time_ns.span) option -> unit
(** [set_link_latency t (Some f)] adds [f src dst] of one-way propagation
    delay to every message from [src] to [dst] — per-link latency spikes
    for fault experiments.  [None] restores nominal latency. *)

val charge : 'a t -> endpoint:int -> dir:[ `Tx | `Rx ] -> peer:category -> bytes:int -> Time_ns.span
(** Consume NIC bandwidth without materializing a message: advances the
    endpoint's serialization horizon for the NIC facing [peer] and returns
    the queueing + serialization delay from now.  Modeled (aggregated)
    client traffic and replies use this so that their bandwidth cost is
    honest without simulating millions of small messages. *)

val messages_sent : 'a t -> int
val bytes_sent : 'a t -> int

val nic_backlog :
  'a t -> endpoint:int -> dir:[ `Tx | `Rx ] -> peer:category -> Time_ns.span
(** Remaining serialization backlog of the NIC facing [peer]: how far the
    endpoint's [dir] horizon lies beyond the current virtual time (0 when
    idle).  A pure observation — reading it never advances any horizon;
    the observability layer exposes it as a bytes-in-flight gauge. *)
