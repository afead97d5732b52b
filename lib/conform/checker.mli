(** The invariant checker (DESIGN.md §6, §9): the one oracle for the SMR
    properties a run must meet.

    {!Runner.Cluster.enable_invariants} creates the instance of a run and
    feeds it every workload submission, per-node batch delivery, shed and
    give-up; the cluster aborts the run at the first violation and runs
    {!finalize} in {!Runner.Cluster.check_liveness}.  The conformance
    harness reads the same instance through {!Runner.Cluster.checker}.

    Checked properties: cross-node agreement and per-node total order,
    no fabrication, exactly-once (per node and globally), no
    delivered-then-shed, Eq. (2) request numbering chaining across observed
    log positions (⊥ and empty keep-alive batches deliver nothing and are
    transparent to the chain), liveness against the reply quorum,
    per-client delivered-range completeness, and client watermark window
    closure (§3.7). *)

type t

type stats = {
  sns : int;  (** distinct log positions delivered somewhere *)
  requests : int;  (** distinct requests ordered *)
  quorum_requests : int;  (** requests whose position reached the reply quorum *)
  per_node_delivered : int array;  (** requests delivered by each node *)
  shed : int;  (** flow-control sheds observed, all correct nodes *)
  gave_up : int;  (** requests whose client exhausted its retry budget *)
}

val create : n:int -> reply_quorum:int -> window:int -> t
(** [window] is the client watermark window, [Core.Config.client_watermark_window]. *)

val set_byzantine : t -> int -> unit
(** Exempt a node from the checked invariants: agreement, exactly-once,
    fabrication and Eq. (2) quantify over {e correct} nodes only, and a
    Byzantine node's deliveries never seed the first-observed baseline for
    a log position.  Its progress counters still feed {!fingerprint}.  Call
    before the node's first delivery; {!Runner.Cluster.mark_byzantine}
    forwards here. *)

val note_submitted : t -> Proto.Request.t -> unit
(** Register a workload-submitted request. *)

val note_delivery : t -> node:int -> sn:int -> first_request_sn:int -> Proto.Batch.t -> unit
(** One node delivered [batch] at log position [sn].  Violations are
    recorded (first one wins), never raised: the caller reads
    {!violation} to decide whether to stop. *)

val note_shed : t -> node:int -> Proto.Request.t -> unit
(** A node shed [r] (an actual drop, not advisory pushback).  Records the shed and checks the no
    delivered-then-shed invariant: a correct node never sheds a request it
    has already delivered (its dedup state must absorb the duplicate
    before admission counts it against the bucket). *)

val note_gave_up : t -> Proto.Request.t -> unit
(** A client abandoned [r] after its retry budget.  Given-up requests
    become legal terminal states for the liveness and per-client
    completeness checks; the per-client watermark-window check treats the
    hole as transparent. *)

val finalize : t -> (stats, string) result
(** Run the end-of-run structural checks (Eq. 2 global chaining, liveness,
    per-client completeness and window closure) and
    report the first recorded violation, if any.  A liveness failure lists
    the first ten missing requests with client, timestamp and submit time.
    Call only after the engine has run past the schedule's heal time plus
    the liveness grace period. *)

val violation : t -> string option
(** The first recorded violation so far, without running the structural
    checks. *)

val fingerprint : t -> string
(** Hex digest of the complete observed behaviour (ordered log + per-node
    progress) — equal fingerprints mean behaviourally identical runs.  Used
    for the determinism and instrumented-vs-bare bit-identity assertions. *)
