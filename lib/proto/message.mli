(** The top-level wire message: everything any process sends to any other.

    One closed variant keeps message-size accounting, tracing and test
    inspection trivial; each ordering protocol contributes its own payload
    module ({!Pbft_msg}, {!Hotstuff_msg}, {!Raft_msg}). *)

type checkpoint_cert = {
  cc_epoch : int;
  cc_max_sn : int;
  cc_root : Iss_crypto.Hash.t;
  cc_req_count : int;
      (** requests delivered through [cc_max_sn] — the Eq. (2) cumulative
          count, so a node adopting the checkpoint without replaying the
          pruned history resumes per-request numbering where the quorum
          left it *)
  cc_policy : string;
      (** leader-policy snapshot ({!Core.Leader_policy.snapshot}) as of the
          end of [cc_epoch]; deterministic from the log, hence identical at
          every correct node and safely part of the signed material *)
  cc_sigs : (Ids.node_id * Iss_crypto.Signature.signature) list;
      (** 2f+1 matching CHECKPOINT signatures (paper §3.5) *)
}

type t =
  | Request_msg of Request.t  (** client → node *)
  | Reply of { req_id : Request.id; sn : int; replier : Ids.node_id }
      (** node → client; the client waits for f+1 matching replies *)
  | Busy of { req_id : Request.id; retry_after : Sim.Time_ns.span; shed : bool }
      (** node → client pushback: the node's ingress is saturated.
          [retry_after] is a server-suggested backoff floor; [shed] tells
          the client whether the request was actually dropped (it must
          retransmit to be ordered) or merely advised to slow down (the
          request is still queued). *)
  | Bucket_update of { epoch : int; bucket_leaders : Ids.node_id array }
      (** node → client at epoch transitions: who leads each bucket
          (paper §4.3 leader detection) *)
  | Checkpoint_msg of {
      epoch : int;
      max_sn : int;
      root : Iss_crypto.Hash.t;
      req_count : int;
      policy : string;
      signer : Ids.node_id;
      sig_ : Iss_crypto.Signature.signature;
    }
  | State_request of { from_sn : int }
      (** lagging node → any node: fetch missing log entries *)
  | State_reply of { entries : (int * Proposal.t) list; cert : checkpoint_cert }
      (** [entries = \[\]] is a {e checkpoint snapshot}: the server no longer
          retains the requested history (log GC pruned it), so instead of
          entries it offers the quorum-signed certificate; the requester
          fast-forwards its log frontier, request numbering and leader
          policy to the checkpoint and rejoins from there *)
  | Pbft of Pbft_msg.t
  | Hotstuff of Hotstuff_msg.t
  | Raft of Raft_msg.t
  | Mir_epoch_change of { epoch : int; primary : Ids.node_id }
      (** Mir-BFT model: epoch-primary configuration announcement *)
  | Garbled of t
      (** A message whose authenticator (channel MAC / signature) fails
          verification — produced only by the Byzantine adversary proxy
          ({!Runner.Adversary}), never by honest code.  Receivers must drop
          it at ingress; the payload is kept so wire-size accounting and
          traces still reflect what was physically transmitted. *)

val checkpoint_material :
  epoch:int -> max_sn:int -> root:Iss_crypto.Hash.t -> req_count:int -> policy:string -> string
(** Canonical bytes a CHECKPOINT signature covers. *)

val iter_proposed_batches : (Batch.t -> unit) -> t -> unit
(** Applies the function to each batch a leader proposes in the message, in
    order: the batch of a PBFT pre-prepare or a HotStuff proposal, and of
    every entry of a Raft append.  A ⊥ proposal carries no batch, and every
    other message (votes, view changes, checkpoints, [Garbled]) none. *)

val wire_size : t -> int
val pp : Format.formatter -> t -> unit
