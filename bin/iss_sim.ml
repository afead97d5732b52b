(* Command-line front end for the ISS simulator.

   Examples:
     iss_sim run --system iss-pbft -n 32 --rate 16400 --duration 60
     iss_sim run --system single-raft -n 16 --rate 4000 --crash 3@10
     iss_sim peak --system iss-hotstuff -n 128 --duration 20
     iss_sim topology *)

open Cmdliner

let system_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "iss-pbft" -> Ok (Runner.Cluster.Iss Core.Config.PBFT)
    | "iss-hotstuff" -> Ok (Runner.Cluster.Iss Core.Config.HotStuff)
    | "iss-raft" -> Ok (Runner.Cluster.Iss Core.Config.Raft)
    | "single-pbft" | "pbft" -> Ok (Runner.Cluster.Single Core.Config.PBFT)
    | "single-hotstuff" | "hotstuff" -> Ok (Runner.Cluster.Single Core.Config.HotStuff)
    | "single-raft" | "raft" -> Ok (Runner.Cluster.Single Core.Config.Raft)
    | "mir" | "mir-bft" | "mirbft" -> Ok Runner.Cluster.Mir
    | other -> Error (`Msg (Printf.sprintf "unknown system %S" other))
  in
  let print fmt s = Format.pp_print_string fmt (Runner.Cluster.system_name s) in
  Arg.conv (parse, print)

let policy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "simple" -> Ok Core.Config.Simple
    | "backoff" -> Ok Core.Config.Backoff
    | "blacklist" -> Ok Core.Config.Blacklist
    | "straggler-aware" | "straggler_aware" -> Ok Core.Config.Straggler_aware
    | other -> Error (`Msg (Printf.sprintf "unknown policy %S" other))
  in
  let print fmt p = Format.pp_print_string fmt (Core.Config.policy_name p) in
  Arg.conv (parse, print)

let fault_conv =
  (* "3@10" = crash node 3 at t=10s; "3@end" = crash node 3 just before its
     last epoch-0 proposal; "straggler:3" = node 3 straggles all run long.
     The epoch-end time depends on the run's configuration, so a parsed
     fault is a function of it, kept with its text for printing. *)
  let module F = Runner.Faults in
  let parse s =
    let fault =
      match String.split_on_char ':' s with
      | [ "straggler"; node ] -> (
          match int_of_string_opt node with
          | Some node -> Ok (fun _ -> F.Straggle { node; from_s = 0.0; until_s = Float.infinity })
          | None -> Error (`Msg "straggler:<node>"))
      | _ -> (
          match String.split_on_char '@' s with
          | [ node; "end" ] -> (
              match int_of_string_opt node with
              | Some node -> Ok (fun config -> F.Crash { node; at_s = F.epoch_end_s config })
              | None -> Error (`Msg "crash spec: <node>@end"))
          | [ node; at ] -> (
              match (int_of_string_opt node, float_of_string_opt at) with
              | Some node, Some at_s -> Ok (fun _ -> F.Crash { node; at_s })
              | _ -> Error (`Msg "crash spec: <node>@<seconds>"))
          | _ -> Error (`Msg "fault spec: <node>@<seconds>, <node>@end or straggler:<node>"))
    in
    Result.map (fun of_config -> (s, of_config)) fault
  in
  let print fmt (s, _) = Format.pp_print_string fmt s in
  Arg.conv (parse, print)

let system_arg =
  Arg.(
    required
    & opt (some system_conv) None
    & info [ "system"; "s" ] ~docv:"SYSTEM"
        ~doc:
          "System to run: iss-pbft, iss-hotstuff, iss-raft, single-pbft, single-hotstuff, \
           single-raft, or mir.")

let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let duration_arg =
  Arg.(value & opt float 30.0 & info [ "duration"; "d" ] ~doc:"Simulated seconds.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")

let policy_arg =
  Arg.(
    value
    & opt (some policy_conv) None
    & info [ "policy" ]
        ~doc:"Leader selection policy (simple, backoff, blacklist, straggler-aware).")

let series_arg =
  Arg.(value & flag & info [ "series" ] ~doc:"Print the 1-second throughput series.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write sampled request-lifecycle spans as JSON lines to $(docv) (one event per \
           line: req, phase, node, t) and print the per-phase latency breakdown.")

let trace_sample_arg =
  Arg.(
    value & opt int 1
    & info [ "trace-sample" ] ~docv:"K"
        ~doc:"Trace every K-th request (deterministic selection; 1 traces all).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run summary plus an end-of-run metric-registry snapshot (per-node \
           gauges, cluster counters, latency histogram) as JSON to $(docv).")

(* Observability wiring: a tracer must share the cluster's virtual clock, so
   when either output is requested we pre-create the engine and hand it to
   the experiment.  With neither flag the run is exactly the uninstrumented
   one (no engine override, no tracer, no registry). *)
let obs_setup ~trace_out ~metrics_out ~trace_sample =
  if trace_out = None && metrics_out = None then (None, None, None)
  else begin
    let engine = Sim.Engine.create () in
    let tracer =
      match trace_out with
      | None -> None
      | Some _ -> Some (Obs.Tracer.create ~sample:trace_sample ~engine ())
    in
    let registry =
      match metrics_out with None -> None | Some _ -> Some (Obs.Registry.create ())
    in
    (Some engine, tracer, registry)
  end

let obs_finish ~trace_out ~metrics_out ~engine ~tracer ~registry r =
  (match (trace_out, tracer) with
  | Some file, Some tr ->
      let oc = open_out file in
      Obs.Tracer.write_jsonl tr oc;
      close_out oc;
      Format.printf "%a@." Obs.Tracer.pp_breakdown tr;
      Format.printf "trace: %d events (%d dropped) -> %s@." (Obs.Tracer.num_events tr)
        (Obs.Tracer.dropped tr) file
  | _ -> ());
  match (metrics_out, registry, engine) with
  | Some file, Some reg, Some engine ->
      let json =
        Obs.Jsonx.Obj
          [
            ("result", Runner.Experiment.result_to_json ~series:true r);
            ("metrics", Obs.Registry.snapshot reg ~at:(Sim.Engine.now engine));
          ]
      in
      let oc = open_out file in
      output_string oc (Obs.Jsonx.to_string json);
      output_char oc '\n';
      close_out oc;
      Format.printf "metrics: %d series -> %s@." (Obs.Registry.num_metrics reg) file
  | _ -> ()

let print_result ~series r =
  Format.printf "%a@." Runner.Experiment.pp_result r;
  if series then begin
    Format.printf "throughput series (req/s per 1s bin):@.";
    Array.iteri (fun i v -> Format.printf "  t=%3ds  %10.0f@." i v) r.Runner.Experiment.series
  end

let workload_conv =
  (* Overload shapes with canonical parameters; a spec like
     "flash-crowd:10,4,5" or "hot-bucket:1.2" overrides them. *)
  let parse s =
    let name, params =
      match String.index_opt s ':' with
      | None -> (s, [])
      | Some i ->
          ( String.sub s 0 i,
            String.split_on_char ','
              (String.sub s (i + 1) (String.length s - i - 1))
            |> List.filter_map float_of_string_opt )
    in
    match (String.lowercase_ascii name, params) with
    | "steady", _ -> Ok Runner.Workload.Steady
    | "flash-crowd", [ at_s; factor; len_s ] ->
        Ok (Runner.Workload.Flash_crowd { at_s; factor; len_s })
    | "flash-crowd", [] ->
        Ok (Runner.Workload.Flash_crowd { at_s = 10.0; factor = 4.0; len_s = 5.0 })
    | "hot-bucket", [ skew ] -> Ok (Runner.Workload.Hot_bucket { skew })
    | "hot-bucket", [] -> Ok (Runner.Workload.Hot_bucket { skew = 1.2 })
    | _ -> Error (`Msg "workload: steady, flash-crowd[:at,factor,len] or hot-bucket[:skew]")
  in
  let print fmt w = Format.pp_print_string fmt (Runner.Workload.shape_name w) in
  Arg.conv (parse, print)

let shed_policy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "reject-new" | "reject_new" -> Ok Core.Config.Reject_new
    | "drop-oldest" | "drop_oldest" -> Ok Core.Config.Drop_oldest
    | other -> Error (`Msg (Printf.sprintf "unknown shed policy %S" other))
  in
  let print fmt p = Format.pp_print_string fmt (Core.Config.shed_policy_name p) in
  Arg.conv (parse, print)

let run_cmd =
  let rate_arg =
    Arg.(value & opt float 1000.0 & info [ "rate"; "r" ] ~doc:"Offered load, requests/s.")
  in
  let offered_load_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "offered-load" ] ~docv:"X"
          ~doc:
            "Offered load as a fraction of the overload experiments' analytical ceiling \
             (2048 req/s; overrides --rate, 2.0 = 2x overload).  Implies the throttled, \
             bounded-admission configuration the overload sweep uses, so fractions here \
             line up with the sweep's — and with the knee in BENCH_overload.json.")
  in
  let workload_arg =
    Arg.(
      value
      & opt (some workload_conv) None
      & info [ "workload" ] ~docv:"SHAPE"
          ~doc:
            "Offered-load shape: steady (default), flash-crowd[:at,factor,len] or \
             hot-bucket[:skew].  Non-steady shapes enable client resubmission.")
  in
  let bucket_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "bucket-cap" ] ~docv:"REQS"
          ~doc:
            "Bound every bucket queue at $(docv) requests: the node sheds past it and \
             pushes back at 75% (default: unbounded, or 64 under --offered-load).")
  in
  let shed_policy_arg =
    Arg.(
      value
      & opt (some shed_policy_conv) None
      & info [ "shed-policy" ] ~docv:"POLICY"
          ~doc:
            "Shed policy when a bounded bucket is full: reject-new (default) or \
             drop-oldest.")
  in
  let retry_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "retry-budget" ] ~docv:"K"
          ~doc:
            "Modeled clients abandon a request after K resubmissions (default: retry \
             forever).  Implies client resubmission.")
  in
  let faults_arg =
    Arg.(
      value & opt_all fault_conv []
      & info [ "fault"; "crash" ] ~docv:"FAULT"
          ~doc:"Fault to inject: <node>@<seconds>, <node>@end, or straggler:<node>.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            (Printf.sprintf
               "Named chaos scenario to run under the invariant checker: %s.  \"chaos\" \
                generates a randomized benign schedule from --seed; \"byz\" a randomized \
                active-malice window (BFT protocols only, like the byz-* scenarios).  The \
                run is extended past the schedule's heal time and fails (exit 1) if any \
                invariant breaks."
               (String.concat ", " Runner.Faults.scenario_names)))
  in
  let go system n rate duration seed policy faults scenario series trace_out
      trace_sample metrics_out offered_load workload bucket_cap shed_policy retry_budget =
    let tweak c =
      let c =
        if Option.is_some offered_load then Runner.Experiment.overload_tweak () c else c
      in
      match (bucket_cap, c.Core.Config.admission) with
      | None, Core.Config.Unbounded -> c
      | Some capacity, _ | None, Core.Config.Bounded { capacity; _ } ->
          let shed = Option.value shed_policy ~default:Core.Config.Reject_new in
          { c with Core.Config.admission = Core.Config.Bounded { capacity; shed } }
    in
    let config = Runner.Cluster.config_of_system ?policy ~tweak ~system ~n () in
    let faults = List.map (fun (_, of_config) -> of_config config) faults in
    let rate =
      match offered_load with
      | None -> rate
      | Some x -> x *. Runner.Experiment.overload_ceiling
    in
    (* Overload shapes and retry budgets only make sense with the
       resubmission sweeper running. *)
    let resubmit =
      if
        Option.is_some retry_budget
        || (match workload with Some Runner.Workload.Steady | None -> false | Some _ -> true)
      then Some true
      else None
    in
    let seed = Int64.of_int seed in
    let engine, tracer, registry = obs_setup ~trace_out ~metrics_out ~trace_sample in
    let scenario =
      match scenario with
      | None -> None
      | Some "chaos" -> Some (Runner.Faults.random ~seed ~n ~duration_s:duration)
      | Some "byz" -> Some (Runner.Faults.random_byzantine ~seed ~n ~duration_s:duration)
      | Some name -> (
          match Runner.Faults.named ~n name with
          | Ok sc -> Some sc
          | Error e ->
              Format.eprintf "%s@." e;
              exit 2)
    in
    Option.iter (fun sc -> Format.printf "%a@." Runner.Faults.pp sc) scenario;
    match
      Runner.Experiment.run ?engine ?policy ~tweak ~faults ?scenario ?tracer ?registry
        ?shape:workload ?retry_budget ?resubmit ~system ~n ~rate ~duration_s:duration
        ~seed ()
    with
    | r ->
        print_result ~series r;
        obs_finish ~trace_out ~metrics_out ~engine ~tracer ~registry r;
        if Option.is_some scenario then Format.printf "invariants: OK@."
    | exception Runner.Cluster.Invariant_violation report ->
        Format.eprintf "INVARIANT VIOLATION@.%s@." report;
        exit 1
    | exception Invalid_argument msg ->
        (* e.g. a byz-* scenario requested for Raft *)
        Format.eprintf "%s@." msg;
        exit 2
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one measurement experiment.")
    Term.(
      const go $ system_arg $ n_arg $ rate_arg $ duration_arg $ seed_arg $ policy_arg
      $ faults_arg $ scenario_arg $ series_arg $ trace_out_arg
      $ trace_sample_arg $ metrics_out_arg $ offered_load_arg $ workload_arg
      $ bucket_cap_arg $ shed_policy_arg $ retry_budget_arg)

let peak_cmd =
  let go system n duration seed series trace_out trace_sample metrics_out =
    let engine, tracer, registry = obs_setup ~trace_out ~metrics_out ~trace_sample in
    let r =
      Runner.Experiment.peak_throughput ?engine ?tracer ?registry ~system ~n
        ~duration_s:duration ~seed:(Int64.of_int seed) ()
    in
    print_result ~series r;
    obs_finish ~trace_out ~metrics_out ~engine ~tracer ~registry r
  in
  Cmd.v
    (Cmd.info "peak" ~doc:"Measure peak throughput (over-saturated run, Fig. 5 metric).")
    Term.(
      const go $ system_arg $ n_arg $ duration_arg $ seed_arg $ series_arg $ trace_out_arg
      $ trace_sample_arg $ metrics_out_arg)

let topology_cmd =
  let go () =
    let dcs = Sim.Topology.datacenters in
    Format.printf "%d datacenters; one-way latency matrix (ms):@." (Array.length dcs);
    Format.printf "%14s" "";
    Array.iter (fun (d : Sim.Topology.datacenter) -> Format.printf "%9s" (String.sub d.name 0 (min 8 (String.length d.name)))) dcs;
    Format.printf "@.";
    Array.iteri
      (fun i (d : Sim.Topology.datacenter) ->
        Format.printf "%14s" d.name;
        Array.iteri
          (fun j _ -> Format.printf "%9.1f" (Sim.Time_ns.to_ms_f (Sim.Topology.latency i j)))
          dcs;
        Format.printf "@.")
      dcs
  in
  Cmd.v (Cmd.info "topology" ~doc:"Print the modeled WAN latency matrix.") Term.(const go $ const ())

(* ------------------------------------------------------------------ *)
(* Differential conformance fuzzing (DESIGN.md §9) *)

let conform_cmd =
  let seeds_arg =
    Arg.(
      value & opt int 20
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of fuzzed seeds to check (seed, seed+1, ...).")
  in
  let start_arg =
    Arg.(value & opt int 1 & info [ "start" ] ~docv:"SEED" ~doc:"First seed of the sweep.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"On failure, greedily minimize the scenario before reporting it.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a committed repro (scenario + protocol) or a bare scenario JSON file \
             instead of fuzzing.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:"Write a self-contained repro JSON for every failure into $(docv).")
  in
  let fail_and_exit ~shrink ~save f =
    let f = if shrink then Conform.Shrink.minimize_failure f else f in
    Format.eprintf "CONFORMANCE FAILURE@.%a@." Conform.Harness.pp_failure f;
    Format.eprintf "scenario: %s@." (Conform.Scenario.to_string f.Conform.Harness.scenario);
    (match save with
    | Some dir ->
        let file = Conform.Repro.save f ~dir in
        Format.eprintf "repro written to %s@." file
    | None -> ());
    exit 1
  in
  let replay ~shrink ~save file =
    match Conform.Repro.load file with
    | Error e ->
        Format.eprintf "%s: %s@." file e;
        exit 2
    | Ok repro ->
        let sc = repro.Conform.Repro.scenario in
        Format.printf "replaying %a against %s@." Conform.Scenario.pp sc
          (String.concat ", " (List.map Core.Config.protocol_name repro.Conform.Repro.protocols));
        (* Behaviour fingerprint check: print each protocol's SHA-256
           fingerprint and, when the repro file carries a committed
           "fingerprints" field, verify bit-identity against it. *)
        let rec go = function
          | [] -> Format.printf "conformance: OK@."
          | p :: rest -> (
              match Conform.Harness.check_protocol sc p with
              | Error f -> fail_and_exit ~shrink ~save f
              | Ok () -> (
                  match Conform.Harness.run_protocol ~instrumented:false sc p with
                  | Error e ->
                      Format.eprintf "%s: %s@." (Core.Config.protocol_name p) e;
                      exit 1
                  | Ok r -> (
                      Format.printf "%s fingerprint %s@." (Core.Config.protocol_name p)
                        r.Conform.Harness.fingerprint;
                      match Conform.Repro.pinned repro p with
                      | Some expected when expected <> r.Conform.Harness.fingerprint ->
                          Format.eprintf "%s: fingerprint drifted from committed value %s@."
                            (Core.Config.protocol_name p) expected;
                          exit 1
                      | Some _ ->
                          Format.printf "  matches committed fingerprint@.";
                          go rest
                      | None -> go rest)))
        in
        go repro.Conform.Repro.protocols
  in
  let go seeds start shrink replay_file save =
    match replay_file with
    | Some file -> replay ~shrink ~save file
    | None ->
        for k = start to start + seeds - 1 do
          let sc = Conform.Scenario.of_seed (Int64.of_int k) in
          Format.printf "%a ...@?" Conform.Scenario.pp sc;
          (match Conform.Harness.check_scenario sc with
          | Ok () -> Format.printf " OK@."
          | Error f ->
              Format.printf " FAIL@.";
              fail_and_exit ~shrink ~save f)
        done;
        Format.printf "conformance: %d seeds passed (x %d protocols, instrumented + bare)@."
          seeds
          (List.length Conform.Harness.protocols)
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Differential conformance fuzzing: run fuzzed schedules against all three ISS \
          instantiations and check them against an idealized atomic-broadcast reference \
          model, with determinism and instrumented/bare bit-identity asserted per seed.")
    Term.(const go $ seeds_arg $ start_arg $ shrink_arg $ replay_arg $ save_arg)

let config_cmd =
  let go system n =
    Format.printf "%a@." Core.Config.pp (Runner.Cluster.config_of_system ~system ~n ())
  in
  Cmd.v (Cmd.info "config" ~doc:"Print the configuration a system would run with.")
    Term.(const go $ system_arg $ n_arg)

let () =
  let info = Cmd.info "iss_sim" ~doc:"ISS (Insanely Scalable SMR) simulator." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; peak_cmd; conform_cmd; topology_cmd; config_cmd ]))
