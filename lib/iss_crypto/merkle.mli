(** Merkle trees over batch digests.

    ISS checkpoints carry "the Merkle tree root of the digests of all the
    batches in the log with sequence numbers in Sn(e)" (paper §3.5), and
    state transfer proves fetched log entries against that root via
    inclusion proofs. *)

type proof
(** An inclusion proof: the sibling path from a leaf to the root. *)

val root : Hash.t array -> Hash.t
(** Root of the tree over the given leaves, in order.  An odd node at any
    level is promoted unchanged (Bitcoin-style trees duplicate instead; we
    promote, which avoids the duplication ambiguity).  The root of zero
    leaves is the hash of the empty string. *)

val prove : Hash.t array -> int -> proof
(** [prove leaves i] builds the inclusion proof for leaf [i].
    Raises [Invalid_argument] when [i] is out of range. *)

val verify_proof : root:Hash.t -> leaf:Hash.t -> index:int -> proof -> bool
(** Checks that [leaf] sits at [index] in a tree with root [root]. *)
