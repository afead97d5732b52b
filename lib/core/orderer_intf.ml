(** The interface between ISS and its Sequenced-Broadcast implementations
    (paper §4.1: the [Segment(s)] / [Announce(b, sn)] contract).

    The Manager hands an orderer a {!Segment.t}; from then on the orderer's
    single obligation is to call [announce] {e exactly once} for every
    sequence number of the segment, each time with either a batch drawn
    from the segment's buckets or ⊥.  Everything else — networking, timers,
    batching, CPU accounting — is provided through the {!ctx} record, which
    keeps protocol implementations free of simulator plumbing and, equally,
    keeps ISS free of protocol specifics. *)

(** Outcome of follower-side proposal validation.  [Reject_malicious] is
    reserved for {e provable} leader misbehaviour — a request whose signature
    fails verification, or a request outside the segment's buckets — which an
    honest leader can never produce.  Everything an honest-but-stale leader
    could plausibly send (an already-delivered request after a lost
    checkpoint, a watermark overflow, a duplicate in-flight proposal) is a
    plain [Reject]: the proposal is refused but the leader is given the
    benefit of the doubt. *)
type verdict = Accept | Reject | Reject_malicious

type ctx = {
  node : Proto.Ids.node_id;
  config : Config.t;
  engine : Sim.Engine.t;
  send : dst:Proto.Ids.node_id -> Proto.Message.t -> unit;
      (** Point-to-point send; [dst = node] loops back locally (cheaply). *)
  broadcast : Proto.Message.t -> unit;
      (** Send to every node, including self (via loopback). *)
  announce : sn:int -> Proto.Proposal.t -> unit;
      (** SB-DELIVER: commit a proposal at a global sequence number. *)
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

(** What a protocol must provide to serve as an SB implementation. *)
module type ORDERER = sig
  type t

  val create : ctx -> Segment.t -> t

  val start : t -> unit
  (** SB-INIT: begin ordering.  Called when the node enters the segment's
      epoch. *)

  val on_message : t -> src:Proto.Ids.node_id -> Proto.Message.t -> unit
  (** Deliver a protocol message routed to this instance.  Messages of
      foreign types must be ignored, not crash. *)

  val stop : t -> unit
  (** Garbage collection after the epoch's stable checkpoint: cancel timers,
      drop state.  No [announce] may follow. *)
end

(** Existential wrapper so a node can hold instances of different orderers
    (it cannot happen in one run today, but the manager code stays agnostic
    and tests mix protocols freely). *)
type instance = Instance : (module ORDERER with type t = 'a) * 'a -> instance

let start (Instance ((module O), o)) = O.start o
let on_message (Instance ((module O), o)) ~src msg = O.on_message o ~src msg
let stop (Instance ((module O), o)) = O.stop o
