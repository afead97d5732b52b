(** Per-client request watermark windows (paper §3.7).

    Clients may have at most [window] requests in flight: request timestamps
    must fall inside [\[floor, floor + window)], where [floor] is the length
    of the client's contiguously delivered timestamp prefix.  This bounds
    both buffer usage and a malicious client's ability to bias the
    bucket-distribution (it controls only [window] choices of timestamp).

    The paper advances windows at epoch boundaries; we advance the floor as
    deliveries arrive, which admits a superset of the paper's valid requests
    and is equally safe (duplicates are filtered by delivery tracking).

    Per client the tracker keeps the floor and a bitmap over the timestamps
    above it.  The bitmap starts at 64 bits and doubles whenever a delivery
    lands beyond it, so delivery tracking is exact and its memory follows
    how far out of order the client's deliveries actually run. *)

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
  | Fresh  (** [floor <= ts < floor + window] and not delivered *)
  | Delivered  (** what {!delivered} answers [true] for *)
  | Outside_window  (** not delivered, and at or beyond [floor + window] *)

val status : t -> Proto.Request.id -> status
(** The window check and {!delivered} in one client lookup: the per-request
    intake and validation check.  Only [Fresh] requests are acceptable. *)

val floor : t -> Proto.Ids.client_id -> int
val window : t -> int
