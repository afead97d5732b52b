(** Raft as a (crash fault-tolerant) Sequenced-Broadcast implementation
    (paper §4.2.3).

    One instance orders one segment; entry index [i] corresponds to the
    segment's [i]-th sequence number.  ISS adaptations:

    - the first leader is fixed to the segment leader — no initial election;
    - the leader re-sends unacknowledged entries on every heartbeat tick
      (the redundant re-proposals the paper observes hurting Raft in WANs
      when the batch timeout is shorter than the round trip);
    - the leader keeps sending empty append-entries until the instance is
      garbage-collected, so every follower learns the final commit index;
    - after an election, the new leader fills every unproposed index with ⊥
      (design principle 2) and never adds client batches;
    - election timer ranges double on failed elections, ensuring liveness
      under eventual synchrony. *)

val factory : Core.Node.orderer_factory
