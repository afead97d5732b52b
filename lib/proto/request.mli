(** Client requests (paper §2.1 and §3.7).

    A request is [r = (o, id)] with [id = (t, c)]: payload, logical
    timestamp, client identity.  Two requests are duplicates iff both payload
    and id are equal; since our simulated payloads are opaque byte counts,
    identity alone discriminates.

    The payload itself is never materialized — the simulator only needs its
    byte size (for the network) and the request's identity (for bucketing
    and deduplication).  The client's signature over [(id, o)] is carried
    either as a real {!Iss_crypto.Signature.signature} (unit tests,
    adversarial scenarios) or as a pre-evaluated verdict (large benchmark
    runs, where re-hashing millions of requests would only heat the host
    CPU; the {e simulated} verification cost is charged on the virtual clock
    either way). *)

type id = { client : Ids.client_id; ts : int }

type sig_data =
  | Signed of Iss_crypto.Signature.signature
  | Presumed of bool  (** [Presumed ok]: verification outcome decided at creation *)
  | Unsigned  (** CFT deployments (Raft) skip client signatures, cf. Table 1 *)

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
  ?sig_data:sig_data ->
  submitted_at:Sim.Time_ns.t ->
  unit ->
  t
(** Defaults: 500-byte payload, [Presumed true]. *)

val sign : Iss_crypto.Signature.keypair -> t -> t
(** Replace the signature with a real one over the request identity and
    payload size (standing in for the payload bytes). *)

val signature_valid : t -> bool
(** Evaluates the carried signature.  [Unsigned] counts as valid — whether a
    deployment {e requires} signatures is the validator's decision
    (see {!Core.Config}). *)

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
