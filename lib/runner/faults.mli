(** Declarative fault schedules: the repository's one fault vocabulary.

    A schedule is a list of fault specs with wall-clock (simulated) activation
    times; {!apply} compiles it into engine events against a {!Cluster.t}.
    All faults from the surviving-process model of the paper's §6.4 are
    expressible: crashes with and without recovery, partitions that heal,
    windows of probabilistic message loss, Byzantine stragglers, per-link
    latency spikes and active-malice attacks.  The paper's figures (7-12)
    and the chaos, conformance and Byzantine harnesses all describe their
    faults with it.

    Schedules are plain data: they can be validated ({!validate}), printed
    ({!pp}), inspected for their heal time ({!heal_s}), generated from a seed
    ({!random}), or looked up by name ({!named}) — the CLI's [--scenario]
    flag and the chaos test-suite both go through this module. *)

type spec =
  | Crash of { node : int; at_s : float }
      (** Fail-stop at [at_s] (no recovery unless a matching [Recover]
          follows). *)
  | Recover of { node : int; at_s : float }
      (** Revive a crashed node; it rejoins via state transfer. *)
  | Crash_recover of { node : int; at_s : float; down_s : float }
      (** Crash at [at_s], recover [down_s] later. *)
  | Isolate of { node : int; from_s : float; until_s : float }
      (** Partition one node away from everyone, then heal. *)
  | Split of { minority : int list; from_s : float; until_s : float }
      (** Partition the cluster into [minority] vs the rest, then heal.
          [minority] must be a strict minority so the majority side retains a
          quorum. *)
  | Drop of { prob : float; from_s : float; until_s : float }
      (** Drop every node-to-node message independently with probability
          [prob] during the window. *)
  | Straggle of { node : int; from_s : float; until_s : float }
      (** Byzantine straggler (proposes empty batches) during the window.  A
          window opening at 0 is in force before the run starts, and one
          closing at [Float.infinity] never closes: together, the whole-run
          straggler of §6.4.2. *)
  | Slow_link of {
      a : int;
      b : int;
      extra : Sim.Time_ns.span;
      from_s : float;
      until_s : float;
    }
      (** Add [extra] propagation latency to both directions of one link
          during the window. *)
  | Byzantine of { node : int; attack : Adversary.attack; from_s : float; until_s : float }
      (** Active malice: during the window the node's outgoing traffic is
          rewritten by [attack] (see {!Adversary.attack}).  BFT protocols
          only. *)

type t

val make : name:string -> spec list -> t
val name : t -> string
val spec : t -> spec list

val heal_s : t -> float
(** Time of the last fault event — when every transient fault has healed and
    every scheduled recovery has happened.  Liveness is judged a grace period
    after this point. *)

val validate :
  ?protocol:Core.Config.protocol ->
  ?warn:(string -> unit) ->
  t ->
  n:int ->
  (unit, string) result
(** Check node ids against the cluster size, window sanity, probability
    ranges, and that splits leave a majority intact.  Byzantine specs are
    additionally rejected when [protocol] is [Raft] (a crash-fault-tolerant
    protocol makes no Byzantine promises) and when more than
    [Proto.Ids.max_faulty ~n] distinct nodes would be Byzantine at the same
    instant.  Overlapping attack windows on the {e same} node are legal but
    suspicious (the later window wins) — they are reported through [warn]. *)

val has_byzantine : t -> bool
(** At least one node has an active-malice spec. *)

val apply : t -> Cluster.t -> unit
(** Compile the schedule to simulator events (call before running the
    engine).  Overlapping partition windows compose: each isolated node is
    its own group and an active split adds one more.  Overlapping slow-link
    windows on distinct links compose likewise. *)

val epoch_end_s : Core.Config.t -> float
(** When to crash a node so that it fails just before proposing the last
    sequence number of its epoch-0 segment — the paper's worst case for
    epoch duration (Figs. 7-9).  Feed it to a [Crash]. *)

val fast : Core.Config.t -> Core.Config.t
(** The chaos-test configuration: shortened epochs and tight timeouts.
    {!liveness_grace_s} derives from these fields, so shrinking them
    shrinks every fault-injected run that waits out the grace period.  A
    zero batch timeout (HotStuff) stays zero. *)

val liveness_grace_s : Core.Config.t -> float
(** How long after {!heal_s} every submitted request must have reached its
    reply quorum.  Derived from the epoch-change timeout (which paces
    state-transfer lag detection and leader banning) plus the rate-capped
    epoch duration (which paces bucket re-assignment away from dead
    leaders). *)

val checked_until : t -> Core.Config.t -> duration_s:float -> Sim.Time_ns.t
(** End of a checked run: [duration_s], or {!heal_s} + {!liveness_grace_s}
    if later, so that liveness is judged on a healed cluster. *)

val named : n:int -> string -> (t, string) result
(** Built-in scenarios: ["crash-recover"], ["partition-heal"],
    ["split-brain"], ["lossy"], ["straggler-window"], ["slow-link"], plus the
    active-malice scenarios ["byz-equivocate"], ["byz-censor"],
    ["byz-corrupt-sig"], ["byz-replay"] and ["byz-bad-checkpoint"] (the last
    pairs the attack with a crash-recovery so the recovering node must
    state-transfer past the attacker's poisoned certificates). *)

val scenario_names : string list
(** Names accepted by {!named}, plus ["chaos"] (seed-derived {!random}). *)

val random : seed:int64 -> n:int -> duration_s:float -> t
(** Generate a randomized schedule of sequential, non-overlapping fault
    windows (at most one fault active at a time, so a connected correct
    quorum always exists and liveness must hold).  Deterministic in [seed]. *)

val random_byzantine : seed:int64 -> n:int -> duration_s:float -> t
(** Generate a schedule with a single active-malice window (one attacker,
    one attack kind, opening early and closing by mid-run); a
    [Bad_checkpoint] attack also crash-recovers a second node inside the
    window.  Deterministic in [seed].  BFT protocols only. *)

val pp : Format.formatter -> t -> unit
