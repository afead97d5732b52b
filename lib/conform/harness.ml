(* The conformance harness: run one fuzzed scenario against all three ISS
   instantiations, differentially check each run against the reference
   model, and assert determinism and instrumented-vs-bare bit-identity by
   re-running.

   Each (scenario, protocol) pair is simulated twice:

   - once fully instrumented (lifecycle tracer + metric registry), which
     also cross-checks the observability layer's own accounting against the
     checker;
   - once bare (no tracer, no registry).

   Both runs are checked by the one invariant checker the cluster owns
   (Cluster.enable_invariants).

   The two runs must produce identical behaviour fingerprints: any
   divergence means either nondeterminism (e.g. an insertion-order-dependent
   tie-break) or instrumentation perturbing the simulation — both bugs. *)

module Time_ns = Sim.Time_ns
module Faults = Runner.Faults
module Cluster = Runner.Cluster

let protocols = [ Core.Config.PBFT; Core.Config.HotStuff; Core.Config.Raft ]

type failure = {
  scenario : Scenario.t;
  protocol : Core.Config.protocol;
  message : string;
}

let failure_message f = f.message
let pp_failure fmt f =
  Format.fprintf fmt "[%s x %s] %s" (Scenario.name f.scenario)
    (Core.Config.protocol_name f.protocol) f.message

(* Longer than Runner.Faults.checked_until (15 s past the window at least,
   grace on top of the window, 10 s more under overload): the pinned corpus
   fingerprints depend on this length, so it keeps its own rule. *)
let run_until_s (sc : Scenario.t) config =
  let heal = Faults.heal_s (Faults.make ~name:(Scenario.name sc) sc.Scenario.faults) in
  (* Give-ups need the sweeper to notice the stall (5 s) and then spend the
     retry budget at one re-send per 2 s sweep: extend overload runs so
     every shed request reaches a terminal state before liveness judges. *)
  let overload_grace = match sc.Scenario.overload with Some _ -> 10.0 | None -> 0.0 in
  Float.max
    (sc.Scenario.duration_s +. 15.0)
    (heal +. Faults.liveness_grace_s config +. sc.Scenario.duration_s)
  +. overload_grace

(* ------------------------------------------------------------------ *)
(* One simulated run *)

type run_result = { fingerprint : string; stats : Checker.stats }

let run_protocol ?(instrumented = true) (sc : Scenario.t) protocol :
    (run_result, string) result =
  match Scenario.validate ~protocol sc with
  | Error e -> Error (Printf.sprintf "invalid scenario: %s" e)
  | Ok () -> (
      let engine = Sim.Engine.create () in
      let tracer =
        if instrumented then Some (Obs.Tracer.create ~sample:1 ~engine ()) else None
      in
      let registry = if instrumented then Some (Obs.Registry.create ()) else None in
      let tweak =
        match sc.Scenario.overload with
        | None -> Faults.fast
        | Some o -> fun c -> Overload.tweak o (Faults.fast c)
      in
      let cluster =
        Cluster.create ~engine ?tracer ?registry ~tweak ~system:(Cluster.Iss protocol)
          ~n:sc.Scenario.n ~seed:sc.Scenario.seed ()
      in
      let config = Cluster.config cluster in
      let shape, retry_budget =
        match sc.Scenario.overload with
        | None -> (Runner.Workload.Steady, None)
        | Some o -> (Overload.shape o, Some Overload.retry_budget)
      in
      let schedule = Faults.make ~name:(Scenario.name sc) sc.Scenario.faults in
      Faults.apply schedule cluster;
      Cluster.enable_invariants cluster;
      let checker = Option.get (Cluster.checker cluster) in
      Cluster.start cluster;
      let run_until = Time_ns.of_sec_f (run_until_s sc config) in
      Runner.Workload.start ~cluster ~rate:sc.Scenario.rate
        ~num_clients:sc.Scenario.num_clients ~resubmit:true ~shape ?retry_budget
        ~shape_seed:sc.Scenario.seed ~sweep_until:run_until
        ~until:(Time_ns.of_sec_f sc.Scenario.duration_s) ();
      match
        Sim.Engine.run ~until:run_until engine;
        Checker.finalize checker
      with
      | exception Cluster.Invariant_violation report -> Error report
      | Error msg -> Error msg
      | Ok stats -> (
          let fingerprint = Checker.fingerprint checker in
          match (registry, tracer) with
          | Some registry, Some tracer -> (
              match Obs_check.check ~cluster ~registry ~tracer ~engine stats with
              | Some msg -> Error (Printf.sprintf "observability self-consistency: %s" msg)
              | None -> Ok { fingerprint; stats })
          | _ -> Ok { fingerprint; stats }))

(* ------------------------------------------------------------------ *)
(* Full conformance for one scenario: all three ISS instantiations, each
   run instrumented and bare, with fingerprint equality across the pair.
   A pair that passes yields the fingerprint both runs share. *)

let check_protocol (sc : Scenario.t) protocol : (string, failure) result =
  match run_protocol ~instrumented:true sc protocol with
  | Error message -> Error { scenario = sc; protocol; message }
  | Ok instrumented -> (
      match run_protocol ~instrumented:false sc protocol with
      | Error message ->
          Error
            {
              scenario = sc;
              protocol;
              message = Printf.sprintf "bare re-run diverged: %s" message;
            }
      | Ok bare ->
          if String.equal instrumented.fingerprint bare.fingerprint then Ok bare.fingerprint
          else
            Error
              {
                scenario = sc;
                protocol;
                message =
                  Printf.sprintf
                    "nondeterminism: instrumented and bare runs differ (%s vs %s) — either \
                     an order-dependent tie-break or instrumentation perturbing the \
                     simulation"
                    instrumented.fingerprint bare.fingerprint;
              })

let check_scenario (sc : Scenario.t) :
    ((Core.Config.protocol * string) list, failure) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | protocol :: rest -> (
        match check_protocol sc protocol with
        | Ok fp -> go ((protocol, fp) :: acc) rest
        | Error f -> Error f)
  in
  (* Active-malice scenarios only make sense under a Byzantine fault model:
     Raft (crash-fault-tolerant) is exempt, not broken. *)
  let applicable =
    if Scenario.has_byzantine sc then
      List.filter (fun p -> p <> Core.Config.Raft) protocols
    else protocols
  in
  go [] applicable

let check_seed seed = check_scenario (Scenario.of_seed seed)
