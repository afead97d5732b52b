(* Tests for the experiment harness: cluster assembly, workload modeling,
   measurement plumbing, and the Mir-BFT gate. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let quick_run ?(policy = Core.Config.Blacklist) ?(faults = []) ~system ~n ~rate ~duration_s () =
  Runner.Experiment.run ~policy ~faults ~system ~n ~rate ~duration_s ~seed:7L ()

let test_iss_pbft_delivers () =
  let r =
    quick_run ~system:(Runner.Cluster.Iss Core.Config.PBFT) ~n:4 ~rate:2000.0 ~duration_s:20.0
      ()
  in
  check_bool "delivered most of the offered load" true
    (float_of_int r.Runner.Experiment.delivered
    > 0.7 *. float_of_int r.Runner.Experiment.submitted);
  check_bool "latency sane (0.1s .. 20s)" true
    (r.Runner.Experiment.mean_latency_s > 0.1 && r.Runner.Experiment.mean_latency_s < 20.0);
  check_bool "p95 >= mean is not required, but p95 >= p50" true
    (r.Runner.Experiment.p95_latency_s >= r.Runner.Experiment.p50_latency_s)

let test_determinism () =
  let go () =
    Runner.Experiment.run ~system:(Runner.Cluster.Iss Core.Config.PBFT) ~n:4 ~rate:1500.0
      ~duration_s:15.0 ~seed:99L ()
  in
  let a = go () and b = go () in
  check_int "same delivered count" a.Runner.Experiment.delivered b.Runner.Experiment.delivered;
  Alcotest.(check (float 0.0001))
    "same mean latency" a.Runner.Experiment.mean_latency_s b.Runner.Experiment.mean_latency_s

let test_single_leader_below_iss () =
  (* Even at small scale, ISS should at least match the single-leader
     baseline's peak; at n=16 it should clearly win. *)
  let duration_s = 10.0 in
  let iss =
    Runner.Experiment.peak_throughput ~system:(Runner.Cluster.Iss Core.Config.PBFT) ~n:16
      ~duration_s ~seed:3L ()
  in
  let single =
    Runner.Experiment.peak_throughput ~system:(Runner.Cluster.Single Core.Config.PBFT) ~n:16
      ~duration_s ~seed:3L ()
  in
  check_bool
    (Printf.sprintf "ISS (%f) > 2x single leader (%f)" iss.Runner.Experiment.throughput
       single.Runner.Experiment.throughput)
    true
    (iss.Runner.Experiment.throughput > 2.0 *. single.Runner.Experiment.throughput)

let test_crash_fault_injection () =
  let r =
    quick_run
      ~faults:[ Runner.Experiment.Crash_at (1, 0.0) ]
      ~system:(Runner.Cluster.Iss Core.Config.PBFT) ~n:4 ~rate:1000.0 ~duration_s:40.0 ()
  in
  (* The system survives the crash and keeps delivering. *)
  check_bool "delivered despite crash" true (r.Runner.Experiment.delivered > 0);
  check_bool "latency includes the fault recovery" true (r.Runner.Experiment.p95_latency_s > 0.0)

let test_mir_gate () =
  let engine = Sim.Engine.create () in
  let sent = ref [] in
  let gate =
    Mirbft.create ~engine ~n:4 ~id:1
      ~send:(fun ~dst msg -> sent := (dst, msg) :: !sent)
      ~timeout:(Sim.Time_ns.sec 10)
  in
  let released = ref false in
  (* Node 1 is primary of epoch 1: announcing releases itself immediately. *)
  Mirbft.epoch_gate gate ~epoch:1 (fun () -> released := true);
  check_bool "primary releases itself" true !released;
  check_int "announced to the 3 others" 3 (List.length !sent);
  (* Epoch 2's primary is node 2: we wait for the announcement. *)
  let released2 = ref false in
  Mirbft.epoch_gate gate ~epoch:2 (fun () -> released2 := true);
  check_bool "waiting for primary" false !released2;
  ignore
    (Mirbft.on_message gate ~src:2 (Proto.Message.Mir_epoch_change { epoch = 2; primary = 2 }));
  check_bool "released by announcement" true !released2;
  (* Epoch 3's primary never announces: the timeout releases. *)
  let released3 = ref false in
  Mirbft.epoch_gate gate ~epoch:3 (fun () -> released3 := true);
  Sim.Engine.run ~until:(Sim.Time_ns.sec 30) engine;
  check_bool "timeout releases (ungraceful epoch change)" true !released3

let test_mir_rejects_wrong_primary () =
  let engine = Sim.Engine.create () in
  let gate =
    Mirbft.create ~engine ~n:4 ~id:0 ~send:(fun ~dst:_ _ -> ()) ~timeout:(Sim.Time_ns.sec 10)
  in
  let released = ref false in
  Mirbft.epoch_gate gate ~epoch:2 (fun () -> released := true);
  (* Node 3 claims to be primary of epoch 2 (it is not). *)
  ignore
    (Mirbft.on_message gate ~src:3 (Proto.Message.Mir_epoch_change { epoch = 2; primary = 3 }));
  check_bool "forged announcement ignored" false !released

let test_saturation_estimates_positive () =
  List.iter
    (fun system ->
      List.iter
        (fun n ->
          check_bool "estimate positive" true
            (Runner.Experiment.saturation_estimate system ~n > 0.0))
        [ 4; 32; 128 ])
    [
      Runner.Cluster.Iss Core.Config.PBFT;
      Runner.Cluster.Iss Core.Config.HotStuff;
      Runner.Cluster.Iss Core.Config.Raft;
      Runner.Cluster.Single Core.Config.PBFT;
      Runner.Cluster.Mir;
    ]

let test_throughput_series_sums_to_delivered () =
  let r =
    quick_run ~system:(Runner.Cluster.Iss Core.Config.PBFT) ~n:4 ~rate:1000.0 ~duration_s:20.0
      ()
  in
  let sum = Array.fold_left ( +. ) 0.0 r.Runner.Experiment.series in
  Alcotest.(check (float 1.0))
    "series integrates to delivered count"
    (float_of_int r.Runner.Experiment.delivered)
    sum

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A request registered with the cluster but never sent to any node cannot
   reach its reply quorum: the end-of-run check must name it. *)
let test_liveness_names_lost_request () =
  let module Cluster = Runner.Cluster in
  let make () = Cluster.create ~system:(Cluster.Iss Core.Config.PBFT) ~n:4 ~seed:1L () in
  let lost = Proto.Request.make ~client:42 ~ts:7 ~submitted_at:(Sim.Time_ns.ms 250) () in
  let cluster = make () in
  Cluster.enable_invariants cluster;
  Cluster.start cluster;
  Cluster.note_submitted cluster lost;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 1) (Cluster.engine cluster);
  (match Cluster.check_liveness cluster with
  | () -> Alcotest.fail "a request no node ever saw passed the liveness check"
  | exception Cluster.Invariant_violation report ->
      check_bool
        (Printf.sprintf "report %S names the request" report)
        true
        (contains report "client 42 ts 7 (submitted at t=0.250s)"));
  Alcotest.check_raises "liveness without enable_invariants"
    (Invalid_argument "Cluster.check_liveness: call enable_invariants first") (fun () ->
      Cluster.check_liveness (make ()))

let () =
  Alcotest.run "runner"
    [
      ( "experiments",
        [
          Alcotest.test_case "ISS-PBFT delivers" `Slow test_iss_pbft_delivers;
          Alcotest.test_case "runs are deterministic" `Slow test_determinism;
          Alcotest.test_case "ISS beats single leader at n=16" `Slow
            test_single_leader_below_iss;
          Alcotest.test_case "crash fault injection" `Slow test_crash_fault_injection;
          Alcotest.test_case "series sums to delivered" `Slow
            test_throughput_series_sums_to_delivered;
          Alcotest.test_case "saturation estimates" `Quick test_saturation_estimates_positive;
        ] );
      ( "invariants",
        [ Alcotest.test_case "liveness names a lost request" `Quick test_liveness_names_lost_request ]
      );
      ( "mir-gate",
        [
          Alcotest.test_case "gate protocol" `Quick test_mir_gate;
          Alcotest.test_case "forged primary ignored" `Quick test_mir_rejects_wrong_primary;
        ] );
    ]
