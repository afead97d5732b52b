(** A node's bucket queues (paper §3.2, §3.7): one FIFO per bucket, all
    behind a single per-node request index.

    Properties the paper requires and this structure provides:
    - {b FIFO}: every request is numbered in arrival order the first time it
      reaches the node, and each bucket's oldest request is proposed first
      (liveness of the induction in the SMR4 proof rests on this);
    - {b idempotent add}: a request is held at most once, no matter how many
      times the client retransmits it;
    - {b removal on commit}: {!commit} forgets a request, whether it is still
      queued or was cut into a batch;
    - {b resurrection}: a request that left its queue without committing —
      cut into a proposal that was aborted with ⊥, or evicted by drop-oldest
      shedding — re-enters at its {e original} arrival position (§3.2
      "maintaining its reception order"), whether it comes back through
      {!resurrect} or a client retransmission through {!add};
    - {b merged cut}: a segment's batch is cut across all its buckets at
      once, oldest arrival first (cutBatch of Algorithm 2).  Arrival
      numbers are unique except one case: an id the node never numbered
      that {!resurrect} queues shares the next arrival number with the next
      first-time arrival.  On such a tie between two buckets the one listed
      first in the cut wins.

    Representation: one {!Proto.Request.Key_tbl} maps a request id to an
    entry holding the request, its arrival number and a queued flag, and
    that entry is also the FIFO slot.  Each bucket keeps its entries in a
    ring in arrival order, plus a short sorted list for re-entries older
    than the ring's newest.  A commit unlinks a queued entry by clearing its
    flag; the dead slot is skipped when it reaches the front.  Every
    operation is O(1) amortized except a re-entry, which is linear in the
    bucket's re-entry list, and a cut, which compares the fronts of the
    listed buckets for each request it takes.

    Each bucket counts the index entries of its requests, so {!commit} of
    a request in a bucket the node holds nothing of costs no index lookup.

    Memory follows use: a bucket gets its own FIFO record and ring on its
    first add (and {!clear} takes them back), and the index starts small
    and grows with the requests the node holds. *)

type t

val create : num_buckets:int -> t
(** Empty queues for buckets [0 .. num_buckets - 1]; requests map to them
    by {!Proto.Request.bucket_of_id}. *)

val length : t -> bucket:int -> int
(** Requests queued in [bucket]. *)

val pending : t -> int
(** Requests queued over all buckets. *)

val total_added : t -> int
(** Times {!add} or {!resurrect} queued a request, re-entries included
    (observability counter). *)

val max_occupancy : t -> int
(** High-water mark of any single bucket's {!length}. *)

val queued : t -> Proto.Request.id -> bool

val add : t -> Proto.Request.t -> bool
(** Queues a request in its bucket: at the next arrival number the first
    time the node sees its id, at its original one after that.  Returns
    [false] — and changes nothing — when the request is already queued.
    (Whether it was {e previously} delivered is tracked by the node, which
    filters such requests before calling [add].) *)

val resurrect : t -> Proto.Request.t -> unit
(** Like {!add}, for a request returned from an aborted proposal.  An id the
    node never numbered is queued at the next arrival number without
    consuming it. *)

val cut : t -> buckets:int list -> max:int -> Proto.Request.t array
(** Removes and returns up to [max] of the oldest requests queued in
    [buckets], in arrival order across them — the batch-cutting primitive
    (Algorithm 2, cutBatch), over a segment's buckets.  On equal arrival
    numbers the bucket listed first gives up its request first.  A cut
    request keeps its arrival number until it commits.  [buckets] must be
    distinct. *)

val commit : t -> Proto.Request.id -> unit
(** Forgets the request: unqueues it if queued and drops its arrival
    number.  No-op for an id the node never saw. *)

val clear : t -> unit
(** Forgets every request (checkpoint jump: the queues may hold requests
    already delivered in the skipped history).  Arrival numbers keep
    increasing across the clear, and the observability counters survive. *)
