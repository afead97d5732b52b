(** Merkle trees over batch digests.

    ISS checkpoints carry "the Merkle tree root of the digests of all the
    batches in the log with sequence numbers in Sn(e)" (paper §3.5).  State
    transfer checks fetched log entries by recomputing that root over the
    whole fetched range, so no inclusion proofs are built. *)

val root : Hash.t array -> Hash.t
(** Root of the tree over the given leaves, in order.  An odd node at any
    level is promoted unchanged (Bitcoin-style trees duplicate instead; we
    promote, which avoids the duplication ambiguity).  The root of zero
    leaves is the hash of the empty string. *)
