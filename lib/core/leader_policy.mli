(** Leader selection policies (paper §3.4, Algorithm 4).

    A policy is evaluated locally and deterministically from information
    every correct node is guaranteed to share: the epoch number and the
    log contents up to the end of the previous epoch.  All nodes therefore
    compute identical leader sets without communicating.

    Failure evidence is the log itself: a ⊥ entry at a sequence number led
    by node [i] means [i]'s SB instance was aborted — [lastFailure(i)] is
    the highest such sequence number.

    - {b SIMPLE}: all nodes lead every epoch.
    - {b BACKOFF}: a suspected node is banned for a period that doubles on
      repeated failures and shrinks linearly while it behaves.
    - {b BLACKLIST} (the paper's default): ban the ≤ f most recently failed
      nodes, keeping at least 2f+1 leaders. *)

type t

type leader_stats = {
  ls_leader : Proto.Ids.node_id;
  ls_batches : int;  (** committed non-⊥ batches in the leader's segment *)
  ls_requests : int;  (** requests the leader's segment shipped *)
}
(** Per-leader facts about a finished epoch, derived from the log (hence
    identical at every correct node). *)

val create : Config.t -> t

val epoch_finished :
  t ->
  epoch:int ->
  failed:(Proto.Ids.node_id * int) list ->
  ?stats:leader_stats list ->
  unit ->
  unit
(** Feed the policy the evidence of a completed epoch: [(leader, sn)] for
    every nil log entry, and (optionally) per-leader segment statistics —
    the STRAGGLER-AWARE policy bans leaders whose segments ship almost no
    requests while the epoch's busiest leaders ship full batches.  Must be
    called once per epoch, in epoch order. *)

val leaders : t -> epoch:int -> Proto.Ids.node_id array
(** Leader set for [epoch], sorted ascending.  May be empty only under
    BACKOFF (the paper: ISS skips such epochs); never empty under SIMPLE or
    BLACKLIST. *)

val snapshot : t -> string
(** Canonical textual snapshot of the policy's mutable state.  Identical at
    every correct node at the same epoch boundary (the state is a pure
    function of the log), so it can be covered by checkpoint signatures. *)

val restore : t -> string -> unit
(** Overwrite the policy state with a {!snapshot} taken at the same policy
    kind and cluster size.  Raises [Invalid_argument] on a mismatched
    snapshot.  Used when a node adopts a checkpoint without replaying the
    epochs that produced the state. *)

val is_banned : t -> Proto.Ids.node_id -> bool
(** Whether the node would be excluded from the next epoch's leader set
    (introspection for tests and metrics). *)
