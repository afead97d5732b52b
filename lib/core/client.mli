(** ISS clients (paper §4.3).

    A client submits signed requests with consecutive timestamps inside its
    watermark window.  Leader detection: it sends each request to the node
    currently leading the request's bucket — learned from quorum-confirmed
    [Bucket_update] messages — plus the two nodes projected (via the initial
    round-robin assignment) to own that bucket in the next two epochs
    ({!Bucket_assignment.client_targets}).  At
    every epoch transition it resubmits all requests not yet confirmed by a
    reply quorum.

    Retransmission: while a request lacks its reply quorum the client
    re-sends it with exponential backoff (base doubling up to a ceiling);
    after a few unanswered tries it stops guessing bucket leaders and
    broadcasts to every node.  Nodes suppress duplicates, so retransmission
    trades bandwidth for liveness under message loss and node crashes. *)

type t

val create :
  config:Config.t ->
  id:Proto.Ids.client_id ->
  clock:Orderer_intf.Clock.t ->
  send:(dst:int -> Proto.Message.t -> unit) ->
  ?retx_base:Sim.Time_ns.span ->
  ?retx_max:Sim.Time_ns.span ->
  ?jitter:float ->
  ?retry_budget:int ->
  ?on_give_up:(Proto.Request.t -> unit) ->
  ?on_complete:(Proto.Request.t -> latency:Sim.Time_ns.span -> unit) ->
  unit ->
  t
(** Requests are signed by the client's key when
    [Config.client_signatures config] holds.  [on_complete] fires when the
    reply quorum ({!Config.reply_quorum}) is reached.  [clock] times
    submissions, retransmissions and open-loop arrivals; a client shares
    its nodes' clock.  Unconfirmed requests are retransmitted with
    exponential backoff: [retx_base] is the first retry delay (default: a
    quarter of the epoch-change timeout, at least 1 s) and [retx_max] the
    backoff ceiling (default: twice the epoch-change timeout).

    [jitter] scales every backoff delay by a uniform factor in
    [1-jitter, 1+jitter] drawn from the client's own seeded RNG, so clients
    with identical backoff parameters don't retransmit in lockstep (0.25 is
    a good value; overload deployments should set it).  The default 0.0
    draws no randomness and keeps exact legacy timing — existing
    deterministic schedules are pinned to it.

    [retry_budget] (default unlimited) bounds retransmissions per request:
    once spent, the client abandons the request (unblocking its watermark
    window) and reports it through [on_give_up].  A [Busy] pushback from a
    node defers the next retransmission to the server-suggested time
    without consuming budget. *)

val on_message : t -> src:int -> Proto.Message.t -> unit

val submit_next : t -> unit
(** Create and send the next request (timestamps are consecutive).  If the
    watermark window is exhausted (too many in flight), the request is
    queued locally and sent when space opens. *)

val start_open_loop : t -> rate:float -> until:Sim.Time_ns.t -> unit
(** Poisson arrivals at [rate] requests/s until the given time. *)

val in_flight : t -> int
val completed : t -> int

val retransmissions : t -> int
(** Total retransmissions sent (backoff timer firings). *)

val gave_up : t -> int
(** Requests abandoned after exhausting their retry budget. *)

val pushbacks_received : t -> int
(** [Busy] pushback messages accepted for a pending request. *)
