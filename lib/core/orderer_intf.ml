(** The interface between ISS and its Sequenced-Broadcast implementations
    (paper §4.1: the [Segment(s)] / [Announce(b, sn)] contract), and the
    small runtime every SB instance is built on.

    The Manager hands an orderer a {!Segment.t}; from then on the orderer's
    single obligation is to announce {e exactly once} every sequence number
    of the segment, each time with either a batch drawn from the segment's
    buckets or ⊥.  The {!ctx} record supplies the node's services —
    networking, batching, CPU accounting, the clock and timers — without
    the event loop itself, so a protocol never schedules simulator events.

    {!Runtime} is the per-instance plumbing every orderer shares.  It owns
    the instance's wire: the protocol gives it its envelope once
    ([~wrap], body -> {!Proto.Message.t}) and sends bodies through
    {!Runtime.send} and {!Runtime.broadcast}.  It also owns re-armable
    timers that die with the instance, the decided-slot record
    (announce-once, [done_], time of last progress), FILL slot recovery,
    the doubling failure-detection timeout, and the {!instance} handle the
    node holds.  A protocol module keeps only its own messages and commit
    rules. *)

(** Outcome of follower-side proposal validation.  [Reject_malicious] is
    reserved for {e provable} leader misbehaviour — a request whose signature
    fails verification, or a request outside the segment's buckets — which an
    honest leader can never produce.  Everything an honest-but-stale leader
    could plausibly send (an already-delivered request after a lost
    checkpoint, a watermark overflow, a duplicate in-flight proposal) is a
    plain [Reject]: the proposal is refused but the leader is given the
    benefit of the doubt. *)
type verdict = Accept | Reject | Reject_malicious

(** The simulator's re-armable one-shot timer, re-exported so an orderer
    never names [Sim.Engine]. *)
module Timer = Sim.Engine.Timer

(** The one clock of a node, its orderers and its clients. *)
module Clock = struct
  type t = {
    now : unit -> Sim.Time_ns.t;
    timer : unit -> Timer.t;  (** a fresh, disarmed timer *)
    post : delay:Sim.Time_ns.span -> (unit -> unit) -> unit;
    post_at : at:Sim.Time_ns.t -> (unit -> unit) -> unit;
  }

  let of_engine engine =
    {
      now = (fun () -> Sim.Engine.now engine);
      timer = (fun () -> Timer.create engine);
      post = (fun ~delay k -> Sim.Engine.post engine ~delay k);
      post_at = (fun ~at k -> Sim.Engine.post_at engine ~at k);
    }
end

type ctx = {
  node : Proto.Ids.node_id;
  config : Config.t;
  clock : Clock.t;  (** the node's clock, shared by all its orderers *)
  send : dst:Proto.Ids.node_id -> Proto.Message.t -> unit;
      (** Point-to-point send; [dst = node] loops back locally (cheaply).
          Orderers go through {!Runtime.send} and {!Runtime.broadcast}. *)
  broadcast : Proto.Message.t -> unit;
      (** Send to every node, this one included: the loopback, then one
          network broadcast to the others. *)
  announce : sn:int -> Proto.Proposal.t -> unit;
      (** SB-DELIVER: commit a proposal at a global sequence number.
          Orderers go through {!Runtime.announce}, never here directly. *)
  request_batch : sn:int -> (Proto.Proposal.t -> unit) -> unit;
      (** Leader side: ask ISS to cut the next batch for this segment.  The
          callback fires once the batching policy allows (batch full, batch
          timeout, or rate-limit slot — §3.2, §4.4.1) and receives a batch
          of requests from the segment's buckets (possibly empty under low
          load, never ⊥). *)
  charge_cpu : Sim.Time_ns.span -> (unit -> unit) -> unit;
      (** Model CPU work (signature checks, QC assembly): the continuation
          runs once the node's (parallelism-adjusted) CPU horizon passes. *)
  keypair : Iss_crypto.Signature.keypair;  (** this node's signing key *)
  threshold_group : Iss_crypto.Threshold.group;
      (** (2f+1, n) group shared by all nodes (HotStuff QCs) *)
  validate_proposal : Segment.t -> sn:int -> Proto.Proposal.t -> verdict;
      (** Follower-side acceptance checks (§4.2 principle 3): request
          validity, no duplicate proposal in the epoch, no re-proposal of
          committed requests, bucket membership.  Recording is included: an
          [Accept] result registers the batch's requests as proposed at [sn],
          so re-validation of the same (sn, batch) stays [Accept] while a
          different sn with the same requests becomes a rejection; a
          rejected batch records nothing.  A
          [Reject_malicious] verdict means the proposal proves its sender
          faulty; orderers react by demanding a leader change eagerly
          instead of waiting out their timers. *)
}

(** What a protocol provides to serve as an SB implementation: the node's
    handle on one instance, built by {!Runtime.instance}. *)
type instance = {
  start : unit -> unit;
      (** SB-INIT: begin ordering.  Called when the node enters the
          segment's epoch. *)
  on_message : src:Proto.Ids.node_id -> Proto.Message.t -> unit;
      (** Deliver a protocol message routed to this instance.  Messages of
          foreign types must be ignored, not crash. *)
  stop : unit -> unit;
      (** Garbage collection after the epoch's stable checkpoint: cancel
          timers, drop state.  No [announce] may follow. *)
}

(** Per-instance state shared by every orderer. *)
module Runtime = struct
  (* Slot recovery (negative acknowledgment).  A protocol's own repair path
     — PBFT's view change, HotStuff's pacemaker — only runs while a quorum
     of replicas still cares about the segment: replicas that decided all
     of it stop joining, so a stuck minority can never assemble one, and
     with fewer than 2f+1 finishers no stable checkpoint (hence no state
     transfer) forms either.  So, orthogonally, a replica that has seen no
     announce for a whole epoch-change timeout asks everyone to FILL its
     undecided slots and adopts any value confirmed by f+1 distinct peers:
     at least one of them is correct, and correct replicas only answer with
     decided values.  The period stays constant — re-asking is idempotent —
     and the timer is progress-gated so it stays quiet while the segment
     drains normally. *)
  type 'body recovery = {
    request : int list -> 'body;  (* the protocol's FILL request *)
    fill_timer : Timer.t;
  }

  type slot =
    | Open
    | Answered of (Proto.Ids.node_id * Iss_crypto.Hash.t) list
        (* FILL answers so far: peer, digest of its value (latest wins) *)
    | Decided of Proto.Proposal.t

  type 'body t = {
    ctx : ctx;
    seg : Segment.t;
    wrap : 'body -> Proto.Message.t;  (* the protocol's envelope *)
    slots : slot array;  (* by position in the segment *)
    mutable n_decided : int;
    mutable last_progress : Sim.Time_ns.t;
    mutable active : bool;  (* between start and stop *)
    mutable timers : Timer.t list;  (* every timer [stop] must silence *)
    recovery : 'body recovery option;
  }

  (** [wrap] puts a protocol message body in this instance's envelope.
      [fill_request] enables slot recovery: it is the protocol's FILL
      request for the given sequence numbers. *)
  let create ~wrap ?fill_request ctx seg =
    let recovery =
      match fill_request with
      | Some request -> Some { request; fill_timer = ctx.clock.timer () }
      | None -> None
    in
    {
      ctx;
      seg;
      wrap;
      slots = Array.make (Segment.seq_count seg) Open;
      n_decided = 0;
      last_progress = Sim.Time_ns.zero;
      active = false;
      timers = (match recovery with Some r -> [ r.fill_timer ] | None -> []);
      recovery;
    }

  (** Send [body] to [dst]; [dst = ctx.node] loops back. *)
  let send t ~dst body = t.ctx.send ~dst (t.wrap body)

  (** Send [body] to every node, this one included. *)
  let broadcast t body = t.ctx.broadcast (t.wrap body)

  (** A timer of this instance: disarmed by {!stop}. *)
  let timer t =
    let timer = t.ctx.clock.timer () in
    t.timers <- timer :: t.timers;
    timer

  let active t = t.active
  let decided_count t = t.n_decided
  let done_ t = t.n_decided >= Array.length t.slots

  (** Started, not stopped, and slots still to decide. *)
  let ordering t = t.active && not (done_ t)

  (** CPU time to verify the client signatures of a proposal's requests. *)
  let signature_cost t = function
    | Proto.Proposal.Batch b when Config.client_signatures t.ctx.config ->
        Proto.Batch.length b * Iss_crypto.Signature.verify_cost_ns
    | Proto.Proposal.Batch _ | Proto.Proposal.Nil -> 0

  let is_decided t sn =
    let i = Segment.sn_index t.seg sn in
    i >= 0 && match t.slots.(i) with Decided _ -> true | Open | Answered _ -> false

  let undecided t =
    let sns = ref [] in
    for i = Array.length t.slots - 1 downto 0 do
      match t.slots.(i) with
      | Decided _ -> ()
      | Open | Answered _ -> sns := t.seg.Segment.seq_nrs.(i) :: !sns
    done;
    !sns

  (** Announce [proposal] at [sn] unless [sn] is decided already or lies
      outside the segment. *)
  let announce t ~sn proposal =
    let i = Segment.sn_index t.seg sn in
    if i >= 0 then
      match t.slots.(i) with
      | Decided _ -> ()
      | Open | Answered _ -> (
          t.slots.(i) <- Decided proposal;
          t.n_decided <- t.n_decided + 1;
          t.last_progress <- t.ctx.clock.now ();
          t.ctx.announce ~sn proposal;
          match t.recovery with
          | Some r when done_ t -> Timer.cancel r.fill_timer
          | Some _ | None -> ())

  let rec arm_recovery t =
    match t.recovery with
    | Some r when ordering t ->
        let period = t.ctx.config.Config.epoch_change_timeout in
        Timer.arm r.fill_timer ~delay:period (fun () ->
            if ordering t && t.ctx.clock.now () - t.last_progress >= period then
              broadcast t (r.request (undecided t));
            arm_recovery t)
    | Some r -> Timer.cancel r.fill_timer
    | None -> ()

  (** SB-INIT bookkeeping; the protocol arms its own timers next, then
      calls {!arm_recovery}. *)
  let start t =
    t.active <- true;
    t.last_progress <- t.ctx.clock.now ()

  let stop t =
    t.active <- false;
    List.iter Timer.cancel t.timers

  (** The node's handle on this instance: [on_message] hears a message only
      between {!start} and {!stop}, and [stop] is {!stop}. *)
  let instance t ~start ~on_message =
    {
      start;
      on_message = (fun ~src msg -> if t.active then on_message ~src msg);
      stop = (fun () -> stop t);
    }

  (** A protocol's failure-detection timeout after [k] failed attempts: the
      epoch-change timeout, doubled [k] times (at most 16), so that it
      eventually exceeds the network delay after GST. *)
  let backoff t k = t.ctx.config.Config.epoch_change_timeout * (1 lsl min k 16)

  (** Answer a FILL request: [reply ~sn value] for each decided [sn]. *)
  let answer_fill t ~sns reply =
    List.iter
      (fun sn ->
        let i = Segment.sn_index t.seg sn in
        if i >= 0 then
          match t.slots.(i) with Decided p -> reply ~sn p | Open | Answered _ -> ())
      sns

  (** Record [src]'s FILL answer for [sn]; [true] when f+1 distinct peers
      now agree on [proposal] for this undecided slot — the caller adopts
      it and announces. *)
  let fill_confirms t ~src ~sn proposal =
    let i = Segment.sn_index t.seg sn in
    if i < 0 || Option.is_none t.recovery then false
    else
      match t.slots.(i) with
      | Decided _ -> false
      | (Open | Answered _) as slot ->
          let others =
            match slot with Answered l -> List.remove_assoc src l | Open | Decided _ -> []
          in
          let digest = Proto.Proposal.digest proposal in
          let answers = (src, digest) :: others in
          t.slots.(i) <- Answered answers;
          let matching =
            List.fold_left
              (fun acc (_, d) -> if Iss_crypto.Hash.equal d digest then acc + 1 else acc)
              0 answers
          in
          matching >= Proto.Ids.max_faulty ~n:t.ctx.config.Config.n + 1
end
