(** Conformance harness (DESIGN.md §9).

    Runs a fuzzed {!Scenario} against all three ISS instantiations
    (ISS-PBFT, ISS-HotStuff, ISS-Raft) under the invariant {!Checker}
    the cluster owns ({!Runner.Cluster.enable_invariants}).

    Each (scenario, protocol) pair runs twice — fully instrumented
    (lifecycle tracer + metric registry, whose accounting is cross-checked
    against the conformance checker) and bare — and the two behaviour
    fingerprints must be identical: this asserts both determinism (no
    insertion-order-dependent tie-breaks) and that observability
    instrumentation never perturbs a run. *)

type failure = {
  scenario : Scenario.t;
  protocol : Core.Config.protocol;
  message : string;
}

val failure_message : failure -> string
val pp_failure : Format.formatter -> failure -> unit

val protocols : Core.Config.protocol list
(** The three ISS instantiations every scenario is checked against. *)

type run_result = { fingerprint : string; stats : Checker.stats }

val run_protocol :
  ?instrumented:bool -> Scenario.t -> Core.Config.protocol -> (run_result, string) result
(** One simulated run of the scenario under one protocol
    ([instrumented] defaults to [true]).  The run extends past the fault
    schedule's heal time plus the liveness grace period before the checks
    fire. *)

val check_protocol : Scenario.t -> Core.Config.protocol -> (unit, failure) result
(** One protocol: instrumented + bare runs with fingerprint equality. *)

val check_scenario : Scenario.t -> (unit, failure) result
(** All three protocols, instrumented + bare each, with fingerprint
    equality.  Returns the first failure. *)

val check_seed : int64 -> (unit, failure) result
(** [check_scenario (Scenario.of_seed seed)]. *)
