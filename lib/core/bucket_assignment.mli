(** Bucket-to-leader assignment (paper §2.4, Algorithm 3's [Buckets]).

    Every epoch, each bucket is assigned to exactly one leader:
    + an initial round-robin distribution over {e all} nodes, rotated by the
      epoch number — Eq. (1): [initBuckets(e,i) = { b | (b+e) ≡ i mod n }];
    + buckets landing on non-leaders ([extraBuckets]) are re-distributed
      round-robin over the epoch's leaders, again rotated by [e].

    The rotation guarantees every node is assigned every bucket infinitely
    often (Lemma 5.4), which the liveness proof needs. *)

val init_owner : n:int -> epoch:int -> int -> int
(** Eq. (1) for one bucket: the node that initially owns it in [epoch]. *)

val client_targets : n:int -> epoch:int -> current:int -> int -> int list
(** §4.3 leader detection: the nodes a client sends a request for
    [bucket] to in [epoch] — [current], the bucket's leader as the client
    knows it, plus its initial owners in the next two epochs, sorted and
    deduplicated. *)

val init_buckets : n:int -> num_buckets:int -> epoch:int -> node:int -> int list
(** Eq. (1) for one node; ascending bucket numbers. *)

val assign : n:int -> num_buckets:int -> epoch:int -> leaders:int array -> int array
(** [assign ~n ~num_buckets ~epoch ~leaders] maps each bucket to the node id
    of its leader in this epoch.  [leaders] must be sorted ascending
    (lexicographic leader order, as the paper's [l(e,k)]) and non-empty.
    Result: [num_buckets]-long array, entry = leader node id. *)

val buckets_of_leader :
  n:int -> num_buckets:int -> epoch:int -> leaders:int array -> leader:int -> int list
(** The inverse view: the (sorted) buckets a given leader owns this epoch.
    Raises [Invalid_argument] if [leader] is not in [leaders]. *)
