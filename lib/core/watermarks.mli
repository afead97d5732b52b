(** Per-client request watermark windows (paper §3.7), and the requests
    proposed this epoch (§4.2).

    Clients may have at most [window] requests in flight: request timestamps
    must fall inside [\[floor, floor + window)], where [floor] is the length
    of the client's contiguously delivered timestamp prefix.  This bounds
    both buffer usage and a malicious client's ability to bias the
    bucket-distribution (it controls only [window] choices of timestamp).

    The paper advances windows at epoch boundaries; we advance the floor as
    deliveries arrive, which admits a superset of the paper's valid requests
    and is equally safe (duplicates are filtered by delivery tracking).

    A node must also not propose or accept a request twice in one epoch
    (§4.2): {!note_proposed} records the sn a fresh request was proposed at,
    until it is delivered or {!clear_proposals} starts a new epoch.  That is
    keyed by the same (client, timestamp) identity as the window, so it
    lives in the same per-client record.

    Per client the tracker keeps one flat [int array]: the client id, the
    floor and a ring over the timestamps above it, each slot holding
    "nothing", "delivered" or the sn the timestamp was proposed at this
    epoch.  The ring starts at 2 slots (or as many as the client's first
    noted timestamp needs) and doubles whenever a delivery or a proposal
    lands beyond it, so tracking is exact and its memory follows how far
    ahead of the floor the client's requests actually run.  One probe
    of an open-addressed table finds a client's block, so the window,
    delivery and proposal checks of one request cost one lookup, and
    {!propose} also notes the proposal in that lookup: a follower validates
    a batch request by request, withdrawing what it noted if the batch is
    rejected after all.  The
    table is not a dense array indexed by client id: ids need not be small
    or contiguous (the workload's start at 100_000, and a Byzantine node
    may make one up), and the table grows only with the clients a node has
    seen.  Reads and ignored notes never add a client: one without a
    block reads as floor 0, nothing delivered or proposed. *)

type t

val create : window:int -> t

val note_delivered : t -> Proto.Request.id -> unit
(** Record a delivered timestamp; advances the client's floor past every
    contiguously delivered prefix. *)

val delivered : t -> Proto.Request.id -> bool
(** Whether the request's timestamp was recorded as delivered — i.e. it is
    below the client's floor or in the out-of-order set.  This doubles as
    the committed-request check for deduplication: the structure stores the
    complete delivery history in O(clients + out-of-order window) memory
    instead of one entry per request ever committed. *)

type status =
  | Fresh
      (** [floor <= ts < floor + window], not delivered, and not noted by
          {!note_proposed} this epoch *)
  | Proposed  (** like [Fresh], but noted by {!note_proposed} this epoch *)
  | Delivered  (** what {!delivered} answers [true] for *)
  | Outside_window  (** not delivered, and at or beyond [floor + window] *)

val status : t -> Proto.Request.id -> status
(** The window, proposal and delivery checks in one client lookup: the
    per-request intake and validation check.  Intake accepts only [Fresh]
    requests. *)

val no_proposal : int
(** What {!proposed_at} answers for a request without a noted sn: [-1]. *)

val note_proposed : t -> Proto.Request.id -> sn:int -> unit
(** Record that the request was cut or accepted into the proposal at [sn]
    (>= 0) this epoch, replacing any earlier sn.  Ignored unless {!status}
    is [Fresh] or [Proposed]. *)

val proposed_at : t -> Proto.Request.id -> int
(** The sn last noted for the request since {!clear_proposals}, or
    {!no_proposal} if none was or the request is delivered. *)

type proposal =
  | Refused  (** not acceptable at the sn; nothing written *)
  | Noted  (** [Fresh]: the sn is now noted *)
  | Kept  (** already [Proposed] at the sn; left as it was *)

val propose : t -> Proto.Request.id -> sn:int -> proposal
(** The per-request check of proposal validation (§4.2) and its note, in
    one lookup: a follower may accept the request into the proposal at [sn]
    ([sn >= 0]) when its {!status} is [Fresh], or [Proposed] with
    {!proposed_at} [= sn].  A [Fresh] one is then noted at [sn], as
    {!note_proposed} would. *)

val withdraw : t -> Proto.Request.id -> unit
(** Undo a {!propose} that answered [Noted], once the batch it was in is
    rejected: the request reads [Fresh] again.  Withdrawing a batch's
    [Noted] requests newest first leaves every {!status}, {!proposed_at}
    and {!floor} as before its first {!propose}. *)

val clear_proposals : t -> unit
(** Forget every noted proposal (a new epoch, or a checkpoint jump). *)

val floor : t -> Proto.Ids.client_id -> int
val window : t -> int
