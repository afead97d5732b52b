(** Behavioural model of Mir-BFT (Stathakopoulou et al., 2019) for the
    paper's comparison experiments (Figures 5 and 10).

    Mir-BFT is the multi-leader PBFT predecessor of ISS.  The two
    differences that matter for the experiments are modelled on top of the
    ISS node (see DESIGN.md for the substitution rationale):

    + {b Epoch primary}: Mir relies on one primary per epoch to announce
      the next configuration.  Nodes stall at every epoch transition until
      the primary's announcement arrives — unlike ISS, where every node
      derives the next configuration locally.  The primary rotates
      round-robin over {e all} nodes, including crashed ones; when the
      primary is crashed, the stall lasts the full epoch-change timeout
      (the recurring zero-throughput periods of Fig. 10).
    + {b Ungraceful epoch change}: while stalled, no next-epoch message is
      processed (ISS buffers and proceeds per segment).

    Ordering inside an epoch reuses the PBFT orderer — Mir's common path is
    PBFT with the same bucket rotation ISS generalizes. *)

type t
(** Per-node Mir gate state. *)

val create :
  clock:Core.Orderer_intf.Clock.t ->
  n:int ->
  id:Proto.Ids.node_id ->
  send:(dst:int -> Proto.Message.t -> unit) ->
  timeout:Sim.Time_ns.span ->
  t

val epoch_gate : t -> epoch:int -> (unit -> unit) -> unit
(** Plug as {!Core.Node.hooks.epoch_gate} (wrapped to drop the node
    argument). *)

val on_message : t -> src:int -> Proto.Message.t -> bool
(** Feed every incoming message here first; returns [true] when the message
    was a Mir epoch-change announcement (consumed), [false] otherwise (pass
    it to the node). *)
