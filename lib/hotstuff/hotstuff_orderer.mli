(** Chained HotStuff as a Sequenced-Broadcast implementation (paper §4.2.2).

    One instance orders one segment.  Each segment sequence number maps to
    one HotStuff view; the chain is extended with three dummy views so the
    three-chain commit pipeline can flush the last real value (paper
    Fig. 4).  Votes are threshold-signature shares; 2f+1 of them combine
    into a constant-size quorum certificate carried by the next proposal.

    The segment leader drives the chain.  On leader timeout the pacemaker
    rotates to a new leader, which — per ISS design principle 2 — proposes
    only ⊥ for the sequence numbers the original leader never got decided,
    restarting the pipeline from its highest known QC. *)

val factory : Core.Node.orderer_factory
