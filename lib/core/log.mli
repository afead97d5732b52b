(** The contiguous replicated log (paper §2.3, Algorithm 1) and its
    checkpoints (§3.5).

    Each position holds a committed proposal (batch or ⊥).  The log tracks
    the delivery frontier ([firstUndelivered]) and produces per-request
    sequence numbers per Eq. (2): request [k] of the batch at position [sn]
    is delivered with number [k + Σ_{i<sn} S_i] where [S_i] counts the
    requests committed at position [i].

    Per epoch it keeps one record: the epoch's range, its checkpoint vote
    tally and its stable certificate, a quorum of signatures over the
    Merkle root of the range.  Certificates decide what is pruned and what
    state transfer serves and accepts.  The node sends what the log builds
    and acts on its verdicts. *)

type t

type delivery = {
  request : Proto.Request.t;
  request_sn : int;  (** Eq. (2) global per-request sequence number *)
  batch_sn : int;  (** log position of the containing batch *)
}

val create : unit -> t

val commit : t -> sn:int -> Proto.Proposal.t -> bool
(** Record a committed proposal.  Returns [false] (no change) when the
    position is already filled with an equal value, or lies below
    {!pruned_below}: a late retransmission must not resurrect it.  A
    disagreeing double commit (an SB violation) raises [Invalid_argument]. *)

val get : t -> sn:int -> Proto.Proposal.t option

val is_committed : t -> sn:int -> bool

val first_undelivered : t -> int

val total_delivered : t -> int
(** Requests delivered so far (= next request sequence number). *)

val committed_ahead : t -> int
(** Positions committed at or beyond the delivery frontier — the commit
    queue depth the observability layer reports (batches waiting for a gap
    to fill before they can be delivered).  Robust to pruning. *)

val prune : t -> below_sn:int -> int
(** Drop entries below [below_sn], clamped to the delivery frontier, and
    return how many went.  Pruned positions read as absent, so state
    transfer no longer serves their epochs.  {!prune_stable} calls it. *)

val pruned_below : t -> int
(** Lowest sequence number still retained; every position below it has been
    pruned (and was delivered first, or was skipped by a {!jump}). *)

val jump : t -> to_sn:int -> total_delivered:int -> unit
(** Fast-forward the delivery frontier to [to_sn] without delivering the
    skipped positions — the caller holds a quorum-signed checkpoint
    covering them.  [total_delivered] is the checkpoint's cumulative Eq. (2)
    request count, so numbering resumes exactly where the quorum left it.
    Skipped positions are discarded ([pruned_below] advances to [to_sn]);
    positions committed ahead of [to_sn] are kept and deliver normally.
    No-op when [to_sn] is not ahead of the frontier. *)

val deliver_ready :
  t -> on_batch:(sn:int -> first_request_sn:int -> Proto.Batch.t -> unit) -> int
(** Walk the frontier: deliver every committed batch at positions
    [firstUndelivered ..] until the first gap, invoking the callback once
    per non-⊥ batch in log order.  [first_request_sn] is the Eq. (2)
    sequence number of the batch's first request; request [k] of the batch
    has [first_request_sn + k].  Returns the number of {e requests}
    delivered in this call. *)

val range_complete : t -> from_sn:int -> to_sn:int -> bool
(** All positions in [\[from_sn, to_sn\]] committed? *)

val nil_entries : t -> from_sn:int -> to_sn:int -> int list
(** Positions in the range holding ⊥ (failure evidence for the leader
    policies). *)

val batch_digests : t -> from_sn:int -> to_sn:int -> Iss_crypto.Hash.t array
(** Digests of the proposals in an (entirely committed) range — input to the
    checkpoint Merkle root.  Raises [Invalid_argument] on a gap. *)

(** {2 Checkpoints and state transfer (§3.5)} *)

val retention_epochs : int
(** Epochs of delivered entries kept below the newest stable checkpoint
    (4): what a lagging peer can still fetch.  A peer further behind jumps. *)

val quorum : Config.t -> int
(** Signatures a checkpoint certificate needs: [2f+1], a majority for Raft. *)

val set_range : t -> epoch:int -> first_sn:int -> length:int -> unit
(** Record the log range of an epoch the node enters. *)

val checkpoint_vote :
  t -> keypair:Iss_crypto.Signature.keypair -> signer:Proto.Ids.node_id -> epoch:int ->
  from_sn:int -> to_sn:int -> req_count:int -> policy:string -> Proto.Message.t
(** This node's signed [Checkpoint_msg] over the committed range. *)

val add_vote :
  t -> quorum:int -> epoch:int -> max_sn:int -> root:Iss_crypto.Hash.t -> req_count:int ->
  policy:string -> signer:Proto.Ids.node_id -> sig_:Iss_crypto.Signature.signature -> bool
(** Fold a checkpoint vote into its epoch's tally.  A badly signed vote, a
    signer's second vote and any vote after the quorum are ignored.
    [true] when this vote completes [quorum] matching votes: the epoch is
    then stable, its certificate's signers sorted by node id. *)

val is_stable : t -> epoch:int -> bool

val newest_stable : t -> int
(** Highest epoch with a stable certificate; [-1] if none. *)

val last_stable_checkpoint : t -> Proto.Message.checkpoint_cert option
(** The certificate of {!newest_stable}. *)

val signers : Proto.Message.checkpoint_cert -> Proto.Ids.node_id list
(** A certificate's signers, sorted and distinct. *)

val prune_stable : t -> below_sn:int -> unit
(** {!prune} what the newest certificate at least {!retention_epochs}
    behind the newest stable one covers, never at or past [below_sn], and
    drop the vote tallies of those epochs; certificates and ranges stay. *)

val state_replies : t -> from_sn:int -> Proto.Message.t list
(** The [State_reply]s answering a request from [from_sn]: if [from_sn] is
    pruned, first an entry-less snapshot (the lowest-[max_sn] certificate
    whose successor is retained); then, in epoch order, every stable epoch
    ending at or after [from_sn] whose entries are all retained. *)

type reply_verdict =
  | Refused  (** sub-quorum, non-contiguous, wrong root, or a stale snapshot *)
  | Jumped  (** snapshot adopted: the log {!jump}ed past the certificate *)
  | Verified of (int * Proto.Proposal.t) list
      (** proven entries to commit, in sn order; the certificate is adopted *)

val check_state_reply :
  t -> quorum:int -> entries:(int * Proto.Proposal.t) list ->
  cert:Proto.Message.checkpoint_cert -> reply_verdict
(** Verify a [State_reply]: [quorum] distinct valid signatures (invalid ones
    dropped) and, with entries, a contiguous range ending at [cc_max_sn]
    whose Merkle root is [cc_root]. *)
