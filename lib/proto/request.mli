(** Client requests (paper §2.1 and §3.7).

    A request is [r = (o, id)] with [id = (t, c)]: payload, logical
    timestamp, client identity.  Two requests are duplicates iff both payload
    and id are equal; since our simulated payloads are opaque byte counts,
    identity alone discriminates.

    The payload itself is never materialized — the simulator only needs its
    byte size (for the network) and the request's identity (for bucketing
    and deduplication).  In a BFT deployment every request carries its
    client's signature over its identity (paper Table 1); CFT deployments
    (Raft) send requests unsigned. *)

type id = { client : Ids.client_id; ts : int }

type sig_data = private
  | Unsigned  (** CFT deployments (Raft) skip client signatures, cf. Table 1 *)
  | Signed of { signer : Iss_crypto.Signature.public_key; covers : id }
      (** A signature by [signer] over the identity [covers], stored inline
          (one 3-word block per request).  The type is private: only {!make}
          and {!sign} build one, from the signer's keypair. *)

type t = {
  id : id;
  payload_size : int;  (** bytes; the paper uses 500 B (avg Bitcoin tx) *)
  sig_data : sig_data;
  submitted_at : Sim.Time_ns.t;  (** when the client first sent it *)
}

val make :
  client:Ids.client_id ->
  ts:int ->
  ?payload_size:int ->
  ?signed:bool ->
  submitted_at:Sim.Time_ns.t ->
  unit ->
  t
(** Defaults: 500-byte payload, signed by the client's own key
    ([~signed:false]: [Unsigned]). *)

val sign : Iss_crypto.Signature.keypair -> t -> t
(** Replace the signature with one by the given key over the request's
    identity. *)

val signature_valid : t -> bool
(** The request carries a signature by its own client over its own id.
    [Unsigned] is not valid: a deployment that requires client signatures
    (see {!Core.Config}) refuses it.  Allocates nothing. *)

val equal_id : id -> id -> bool
val id_key : id -> int
(** Injective packing of an id into one int (for hashtables); supports
    clients < 2^31 and timestamps < 2^31. *)

module Key_tbl : Hashtbl.S with type key = int
(** Hashtable keyed by {!id_key} (or by a bare client id).  Monomorphic:
    hashing and key comparison are inline integer arithmetic instead of the
    polymorphic [Stdlib.Hashtbl]'s generic C calls, which matters on the
    per-request intake, validation and commit paths that every node runs. *)

val bucket_of_id : num_buckets:int -> id -> int
(** The paper's request-to-bucket map (§3.7): a uniform hash of
    [c ‖ t] — payload excluded so malicious clients cannot bias the
    distribution.  We mix the two components multiplicatively before the
    modulo so consecutive timestamps of one client still spread over all
    buckets. *)

val wire_size : t -> int
(** Bytes on the wire: payload + id + signature. *)

val pp_id : Format.formatter -> id -> unit
