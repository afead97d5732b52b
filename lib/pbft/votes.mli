(** Vote tally for one PBFT phase (PREPARE or COMMIT) of one slot.

    Keeps, per view, the digest each node voted for plus a count per
    digest, so a quorum check is a lookup rather than a recount of every
    vote received: O(1) per vote, O(n) per slot and node instead of
    O(n²).  Views are few (one unless a view change happened) and so are
    distinct digests per view (one unless the primary equivocated), so
    both are kept in short lists. *)

type t

val create : n:int -> t
(** An empty tally for nodes [0..n-1].  Allocates nothing per view until
    the first vote of that view arrives. *)

val add : t -> view:int -> node:int -> Iss_crypto.Hash.t -> bool
(** Record [node]'s vote in [view] unless it already voted there.  Returns
    whether the vote was recorded; [false] for a repeated vote and for a
    node outside [0..n-1]. *)

val set : t -> view:int -> node:int -> Iss_crypto.Hash.t -> unit
(** Record [node]'s vote in [view], replacing any earlier vote of it there
    (a replica's own vote).  Ignores a node outside [0..n-1]. *)

val count : t -> view:int -> Iss_crypto.Hash.t -> int
(** Number of distinct nodes whose vote in [view] is the given digest. *)
