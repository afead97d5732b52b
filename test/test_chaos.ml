(* Randomized chaos sweep — the heavyweight companion to test_faults.ml.

     dune build @chaos

   Runs every named fault scenario plus several seed-derived random
   schedules against each ISS instantiation, with invariant checking and
   the end-of-run liveness assertion enabled (Experiment.run does both when
   given a scenario).  Any safety, exactly-once or liveness violation
   raises Cluster.Invariant_violation and fails the build with the
   checker's report. *)

module Faults = Runner.Faults
module Cluster = Runner.Cluster
module Experiment = Runner.Experiment

let systems =
  [
    Cluster.Iss Core.Config.PBFT;
    Cluster.Iss Core.Config.HotStuff;
    Cluster.Iss Core.Config.Raft;
  ]

let chaos_seeds = [ 1L; 2L; 3L ]

let () =
  let n = 4 in
  let failures = ref 0 in
  let run_one system sc =
    let label =
      Printf.sprintf "%-12s %s" (Cluster.system_name system) (Faults.name sc)
    in
    (* Active malice is outside Raft's crash-fault model, so Faults.validate
       refuses those schedules for it; skip them as the fuzzer does. *)
    if system = Cluster.Iss Core.Config.Raft && Faults.has_byzantine sc then
      Format.printf "skip %s  (Byzantine schedule, crash-fault protocol)@." label
    else
      match
        Experiment.run ~tweak:Faults.fast ~scenario:sc ~system ~n ~rate:300.0 ~duration_s:30.0
          ~seed:7L ()
      with
      | r -> Format.printf "ok   %s  %a@." label Experiment.pp_result r
      | exception Cluster.Invariant_violation report ->
          incr failures;
          Format.printf "FAIL %s@.%s@." label report
  in
  List.iter
    (fun system ->
      List.iter
        (fun name ->
          if name <> "chaos" then
            match Faults.named ~n name with
            | Ok sc -> run_one system sc
            | Error e -> failwith e)
        Faults.scenario_names;
      List.iter
        (fun seed -> run_one system (Faults.random ~seed ~n ~duration_s:30.0))
        chaos_seeds)
    systems;
  if !failures > 0 then begin
    Format.printf "@.%d chaos run(s) violated an invariant@." !failures;
    exit 1
  end
  else Format.printf "@.all chaos runs passed@."
