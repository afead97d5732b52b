(** Simulated (t, n)-threshold signatures (stand-in for BLS).

    The paper's HotStuff implementation aggregates 2f+1 follower votes into a
    constant-size quorum certificate using BLS threshold signatures.  We
    simulate the scheme's interface and guarantees:

    - each of the [n] parties produces a {e share} over a message;
    - any [t] distinct valid shares combine into a constant-size signature;
    - fewer than [t] shares, shares over different messages, or shares from
      repeated signers do not combine;
    - the combined signature verifies against the group's public parameters
      and the message.

    Like {!Signature}, values are abstract: a share records its group's
    [(n, t)], its signer and the message it covers, and a combined signature
    its group and message, so only {!sign_share} and {!combine} can build
    values that verify.  No host hashing is spent; wire sizes and CPU costs
    (charged on the virtual clock by the caller) mirror BLS12-381. *)

type group
(** Public parameters of a (t, n) group. *)

type share
type combined

val setup : n:int -> t:int -> group
(** Deterministic setup for parties [0..n-1] with threshold [t].
    Raises [Invalid_argument] unless [0 < t <= n]. *)

val sign_share : group -> signer:int -> string -> share
(** Raises [Invalid_argument] if [signer] is outside [0..n-1]. *)

val verify_share : group -> signer:int -> string -> share -> bool

val combine : group -> string -> share list -> combined option
(** [combine g msg shares] is [Some sig] when [shares] contains at least
    [t] valid shares over [msg] from distinct signers, [None]
    otherwise. *)

val verify : group -> string -> combined -> bool

val share_wire_size : int
(** 48 bytes (BLS12-381 G1 point). *)

val combined_wire_size : int
(** 48 bytes — aggregation does not grow the signature; this constant size
    is why HotStuff achieves linear message complexity. *)

val share_sign_cost_ns : int
val combine_cost_ns : t:int -> int
val verify_cost_ns : int
