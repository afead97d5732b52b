(* The heavyweight randomized overload sweep:  dune build @overload


   Part 1 — 200 conformance seeds, each forced to carry an overload window
   (the fuzzer's natural draw gives one seed in five; here every seed runs
   flow control, shedding and retry budgets, alongside whatever fault
   schedule it drew).

   Part 2 — the graceful-degradation acceptance for the offered-load sweep:
   at 2x the saturation ceiling, goodput stays within 25% of the peak and
   p99 latency stays bounded.

   Part 3 — exactly-once-or-gave-up at 2x overload: a saturating run with
   the online invariant checker on, extended until every request reaches a
   terminal state, then judged by the give-up-aware liveness check. *)

module Time_ns = Sim.Time_ns
module Cluster = Runner.Cluster
module Experiment = Runner.Experiment

let forced_overload k =
  let drop_oldest = k mod 2 = 0 in
  if k mod 4 < 2 then
    Conform.Overload.Flash_crowd
      { at_s = 1.0 +. (0.25 *. float_of_int (k mod 8)); factor = 8.0; len_s = 1.5; drop_oldest }
  else
    Conform.Overload.Hot_bucket
      { skew = 0.9 +. (0.1 *. float_of_int (k mod 6)); drop_oldest }

let conformance_part () =
  let seeds = 200 in
  let failed = ref 0 in
  let sheds_seen = ref 0 in
  for k = 1 to seeds do
    let sc = Conform.Scenario.of_seed (Int64.of_int (100_000 + k)) in
    let sc =
      match sc.Conform.Scenario.overload with
      | Some _ -> sc
      | None -> { sc with Conform.Scenario.overload = Some (forced_overload k) }
    in
    Printf.printf "[%3d/%d] %s %!" k seeds (Conform.Scenario.name sc);
    (match Conform.Harness.check_scenario sc with
    | Ok () -> Printf.printf "OK\n%!"
    | Error f ->
        incr failed;
        Printf.printf "FAIL\n%s\nscenario: %s\n%!"
          (Conform.Harness.failure_message f)
          (Conform.Scenario.to_string f.Conform.Harness.scenario));
    (* Count sheds through one extra bare PBFT run so the sweep can assert
       the overload machinery actually fired across the corpus. *)
    match Conform.Harness.run_protocol ~instrumented:false sc Core.Config.PBFT with
    | Ok r -> sheds_seen := !sheds_seen + r.Conform.Harness.stats.Checker.shed
    | Error _ -> ()
  done;
  if !failed > 0 then begin
    Printf.printf "overload conformance: %d/%d seeds FAILED\n" !failed seeds;
    exit 1
  end;
  Printf.printf "overload conformance: %d seeds passed (%d sheds observed)\n%!" seeds
    !sheds_seen;
  if !sheds_seen = 0 then begin
    Printf.printf "but no seed ever shed a request — overload windows are inert\n";
    exit 1
  end

let sweep_part () =
  let sw = Experiment.overload_sweep () in
  List.iter
    (fun (p : Experiment.sweep_point) ->
      Format.printf "  %.2fx  %a@." p.Experiment.fraction Experiment.pp_result
        p.Experiment.point)
    sw.Experiment.sweep_points;
  Format.printf "peak goodput %.0f req/s; knee at %.2fx@." sw.Experiment.peak_goodput
    sw.Experiment.knee_fraction;
  let at_2x =
    List.find (fun (p : Experiment.sweep_point) -> p.Experiment.fraction = 2.0)
      sw.Experiment.sweep_points
  in
  let goodput_ratio = at_2x.Experiment.goodput /. sw.Experiment.peak_goodput in
  if goodput_ratio < 0.75 then begin
    Format.printf "FAIL: goodput at 2x collapsed to %.0f%% of peak (floor 75%%)@."
      (100.0 *. goodput_ratio);
    exit 1
  end;
  let p99 = at_2x.Experiment.point.Experiment.p99_latency_s in
  if p99 > 30.0 then begin
    Format.printf "FAIL: p99 at 2x unbounded (%.1fs)@." p99;
    exit 1
  end;
  if sw.Experiment.knee_fraction < 0.5 then begin
    Format.printf "FAIL: knee below half the analytical ceiling (%.2fx)@."
      sw.Experiment.knee_fraction;
    exit 1
  end;
  Format.printf
    "graceful degradation: goodput at 2x = %.0f%% of peak, p99 %.1fs, knee %.2fx@."
    (100.0 *. goodput_ratio) p99 sw.Experiment.knee_fraction

let exactly_once_part () =
  (* A 2x-saturation run judged request by request: the online invariant
     checker raises on any double delivery or delivered-then-shed
     contradiction while it runs, and the give-up-aware liveness check
     requires every submitted request to have reached its reply quorum or
     explicitly spent its retry budget by the end. *)
  let engine = Sim.Engine.create () in
  let cluster =
    Cluster.create ~engine
      ~tweak:(Experiment.overload_tweak ())
      ~system:(Cluster.Iss Core.Config.PBFT) ~n:4 ~seed:77L ()
  in
  Cluster.enable_invariants cluster;
  Cluster.start cluster;
  let until = Time_ns.sec 10 in
  let run_until = Time_ns.sec 45 in
  Runner.Workload.start ~cluster ~rate:(2.0 *. Experiment.overload_ceiling)
    ~resubmit:true ~retry_budget:3 ~sweep_until:run_until ~until ();
  (match
     Sim.Engine.run ~until:run_until engine;
     Cluster.check_liveness cluster
   with
  | () -> ()
  | exception Cluster.Invariant_violation report ->
      Printf.printf "FAIL: %s\n" report;
      exit 1);
  Printf.printf
    "exactly-once at 2x: %d submitted = %d delivered + %d gave up (%d sheds along the way)\n%!"
    (Cluster.submitted cluster)
    (Cluster.delivered_quorum cluster)
    (Cluster.gave_up_count cluster) (Cluster.shed_total cluster)

let () =
  sweep_part ();
  exactly_once_part ();
  conformance_part ();
  print_endline "overload sweep: all checks passed"
