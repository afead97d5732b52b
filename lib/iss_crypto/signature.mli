(** Simulated digital signatures (stand-in for 256-bit ECDSA).

    The paper's clients sign every request with ECDSA and nodes sign
    protocol messages (view changes, checkpoints).  We cannot (and need not)
    run real elliptic-curve crypto in the simulator: what the protocols rely
    on is (a) unforgeability, (b) wire size, and (c) CPU cost of sign/verify.

    This module provides all three:
    - a signature records its signer and the message it covers, and the
      type is abstract, so only {!sign} with the signer's keypair can build
      one that {!verify} accepts: unforgeability is enforced by the type
      system, not computed.  No host hashing is spent on it;
    - signatures report a 64-byte wire size (ECDSA P-256 signature size);
    - {!sign_cost_ns} / {!verify_cost_ns} expose calibrated CPU budgets that
      the simulator charges on its virtual clock.

    Client request signatures follow the same rule but are stored inline
    in the request ({!Proto.Request}), built only from a {!keypair}. *)

type keypair
type public_key = private int
(** A process's public key is its identity. *)

type signature

val genkey : id:int -> keypair
(** Deterministic key generation from a numeric identity (the simulation's
    PKI: every process is "identified by its public key").  Only the
    process [id] itself calls it for its own identity. *)

val public : keypair -> public_key

val public_of_id : int -> public_key
(** Look up a process's public key by its identity — the simulation's PKI
    directory. *)

val sign : keypair -> string -> signature

val verify : public_key -> string -> signature -> bool
(** [verify pk msg s]: [s] was made by [pk]'s keypair over exactly [msg]. *)

val wire_size : int
(** Bytes a signature occupies on the wire (64, as ECDSA P-256). *)

val sign_cost_ns : int
(** Simulated CPU time to produce a signature (~70 µs, ECDSA P-256 on
    commodity server CPUs). *)

val verify_cost_ns : int
(** Simulated CPU time to verify (~200 µs). *)
