(** PBFT as a Sequenced-Broadcast implementation (paper §4.2.1).

    One instance orders one segment.  The segment leader is the view-0
    primary; it proposes batches for every sequence number of the segment
    (in parallel, paced by ISS's rate limiter).  Commit follows the classic
    three-phase pattern (PRE-PREPARE / PREPARE / COMMIT with strong
    quorums).

    ISS adaptations implemented here:
    - the view-change timer is reset whenever {e any} batch of the segment
      commits (censoring resistance comes from ISS's bucket rotation, so
      per-request timers are unnecessary);
    - view changes are signed (Castro–Liskov's signature-based variant);
    - after a view change, the new primary re-proposes values prepared under
      the original leader and ⊥ for every other open sequence number
      (design principle 2 — needed for SB Integrity + Termination). *)

val factory : Core.Node.orderer_factory
(** Plug into {!Core.Node.create}. *)
