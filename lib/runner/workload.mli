(** Modeled client workload.

    The paper drives ISS with 256 closed-loop clients spread over all
    datacenters.  Simulating every client message at 10⁵ req/s would melt
    the event queue without changing the result, so the workload generator
    models the client side:

    - requests arrive open-loop at a configurable aggregate rate, attributed
      to a pool of virtual clients (consecutive timestamps each, spread over
      the 16 datacenters);
    - leader detection (§4.3) is modeled exactly: each request goes to the
      node leading its bucket in {!Cluster.routing_view} plus the projected
      owners in the next two epochs;
    - a stalled request is re-sent by the resubmission rule below.

    This module is the arrival process and the resubmission rule only.
    Every copy goes through {!Cluster.send_request}, which charges the
    client→node propagation and the target's public NIC; {!Cluster}
    charges the replies and records what the clients heard
    ({!Cluster.request_terminal}). *)

type shape =
  | Steady  (** constant offered load (the default; exact legacy behaviour) *)
  | Flash_crowd of { at_s : float; factor : float; len_s : float }
      (** offered load steps to [factor]× during
          [\[at_s, at_s + len_s)] — the flash-crowd overload shape *)
  | Hot_bucket of { skew : float }
      (** steady aggregate rate, but each request targets the bucket drawn
          from a Zipf([skew]) distribution over buckets (rank 1 = bucket 0),
          concentrating load on a few bucket queues *)

val shape_name : shape -> string

val start :
  cluster:Cluster.t ->
  rate:float ->
  ?num_clients:int ->
  ?resubmit:bool ->
  ?shape:shape ->
  ?retry_budget:int ->
  ?shape_seed:int64 ->
  ?sweep_until:Sim.Time_ns.t ->
  until:Sim.Time_ns.t ->
  unit ->
  unit
(** Generate [rate] requests/s until the given simulated time.
    [num_clients] defaults to 2048 — enough that per-client watermark
    windows never throttle the aggregate rate.

    [resubmit] (default false) models §4.3's client resubmission: every two
    seconds a sweeper re-sends each request that is not
    {!Cluster.request_terminal} and has been out for over 5 s to the
    {e current} owner of its bucket, in submission order.  A sweep visits
    only such stalled requests.  Required for fault experiments, where a request's original
    target may have crashed or lost the bucket.  Only resubmitting runs
    gate each client by the §3.7 watermark window: a client submits
    timestamp [ts] only once [ts - window] is terminal.
    [sweep_until] (default [until]) lets the sweeper outlive the submission
    window — chaos runs extend it past the last fault's heal time so
    stragglers submitted just before a crash still get re-driven.

    [shape] (default [Steady]) modulates the offered load for overload
    experiments; [shape_seed] (default 1) seeds the shape's private RNG
    (only [Hot_bucket] draws from it).  [Steady] runs are bit-identical to
    builds without the shape machinery.

    [retry_budget] (default unlimited) bounds the sweeper's re-sends per
    request: once a stalled request has been re-driven that many times, the
    modeled client abandons it via {!Cluster.note_gave_up} — the explicit
    give-up terminal state the overload invariants accept. *)
