(** Simulated digital signatures (stand-in for 256-bit ECDSA).

    The paper's clients sign every request with ECDSA and nodes sign
    protocol messages (view changes, checkpoints).  We cannot (and need not)
    run real elliptic-curve crypto in the simulator: what the protocols rely
    on is (a) unforgeability, (b) wire size, and (c) CPU cost of sign/verify.

    This module provides all three:
    - a signature is the SHA-256 of (secret key ‖ message); since secret
      keys never leave this module, only the keyholder can produce a digest
      that verifies — unforgeable under the same "cannot invert the hash"
      assumption the paper makes about its PKI;
    - signatures report a 64-byte wire size (ECDSA P-256 signature size);
    - {!sign_cost_ns} / {!verify_cost_ns} expose calibrated CPU budgets that
      the simulator charges on its virtual clock. *)

type keypair
type public_key
type signature

val genkey : id:int -> keypair
(** Deterministic key generation from a numeric identity (the simulation's
    PKI: every process is "identified by its public key"). *)

val public : keypair -> public_key

val public_of_id : int -> public_key
(** Look up a process's public key by its identity — the simulation's PKI
    directory. *)

val sign : keypair -> string -> signature
val verify : public_key -> string -> signature -> bool

val wire_size : int
(** Bytes a signature occupies on the wire (64, as ECDSA P-256). *)

val sign_cost_ns : int
(** Simulated CPU time to produce a signature (~70 µs, ECDSA P-256 on
    commodity server CPUs). *)

val verify_cost_ns : int
(** Simulated CPU time to verify (~200 µs). *)

val forged : unit -> signature
(** A structurally valid but never-verifying signature, for adversarial
    tests. *)
