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
      ~faults:[ Runner.Faults.Crash { node = 1; at_s = 0.0 } ]
      ~system:(Runner.Cluster.Iss Core.Config.PBFT) ~n:4 ~rate:1000.0 ~duration_s:40.0 ()
  in
  (* The system survives the crash and keeps delivering. *)
  check_bool "delivered despite crash" true (r.Runner.Experiment.delivered > 0);
  check_bool "latency includes the fault recovery" true (r.Runner.Experiment.p95_latency_s > 0.0)

(* The figure-fault path (Figs. 7-12): an epoch-end crash and a whole-run
   straggler through [Experiment.run ~faults], pinned to the numbers these
   runs produce.  Any drift in how the faults are compiled shows here. *)
let test_figure_faults () =
  let check name faults (submitted, delivered, events, messages, p50, p99) =
    let r =
      Runner.Experiment.run ~faults ~system:(Runner.Cluster.Iss Core.Config.PBFT) ~n:4
        ~rate:500.0 ~duration_s:12.0 ~seed:7L ()
    in
    check_int (name ^ " submitted") submitted r.Runner.Experiment.submitted;
    check_int (name ^ " delivered") delivered r.Runner.Experiment.delivered;
    check_int (name ^ " sim events") events r.Runner.Experiment.sim_events;
    check_int (name ^ " net messages") messages r.Runner.Experiment.net_messages;
    Alcotest.(check (float 0.0)) (name ^ " p50") p50 r.Runner.Experiment.p50_latency_s;
    Alcotest.(check (float 0.0)) (name ^ " p99") p99 r.Runner.Experiment.p99_latency_s
  in
  let config =
    Runner.Cluster.config_of_system ~system:(Runner.Cluster.Iss Core.Config.PBFT) ~n:4 ()
  in
  check "epoch-end crash"
    [ Runner.Faults.Crash { node = 1; at_s = Runner.Faults.epoch_end_s config } ]
    (6005, 2470, 18312, 180, 2.3718034719999999, 4.3178273840000001);
  check "whole-run straggler"
    [ Runner.Faults.Straggle { node = 1; from_s = 0.0; until_s = Float.infinity } ]
    (6005, 2973, 21066, 225, 3.3525062459999999, 6.2314602580000003)

let test_mir_gate () =
  let engine = Sim.Engine.create () in
  let sent = ref [] in
  let gate =
    Mirbft.create ~clock:(Core.Orderer_intf.Clock.of_engine engine) ~n:4 ~id:1
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
    Mirbft.create ~clock:(Core.Orderer_intf.Clock.of_engine engine) ~n:4 ~id:0
      ~send:(fun ~dst:_ _ -> ())
      ~timeout:(Sim.Time_ns.sec 10)
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

(* The cluster records what clients heard in every run, with or without
   resubmission: a request that reached its reply quorum, or that its client
   gave up, is terminal; an id never submitted is not. *)
let test_request_terminal_without_resubmission () =
  let module Cluster = Runner.Cluster in
  let cluster = Cluster.create ~system:(Cluster.Iss Core.Config.PBFT) ~n:4 ~seed:1L () in
  let signed = Core.Config.client_signatures (Cluster.config cluster) in
  let request ~client ~ts = Proto.Request.make ~client ~ts ~signed ~submitted_at:0 () in
  let answered = request ~client:42 ~ts:0 and abandoned = request ~client:42 ~ts:1 in
  Cluster.start cluster;
  Cluster.note_submitted cluster answered;
  Array.iter (fun node -> Core.Node.submit node answered) (Cluster.nodes cluster);
  Sim.Engine.run ~until:(Sim.Time_ns.sec 10) (Cluster.engine cluster);
  check_int "reply quorum reached" 1 (Cluster.delivered_quorum cluster);
  check_bool "answered request is terminal" true
    (Cluster.request_terminal cluster answered.Proto.Request.id);
  check_bool "never-submitted id is not terminal" false
    (Cluster.request_terminal cluster { Proto.Request.client = 7; ts = 0 });
  check_bool "abandoned request is not terminal yet" false
    (Cluster.request_terminal cluster abandoned.Proto.Request.id);
  Cluster.note_gave_up cluster abandoned;
  check_bool "given-up request is terminal" true
    (Cluster.request_terminal cluster abandoned.Proto.Request.id);
  check_int "one give-up counted" 1 (Cluster.gave_up_count cluster)

(* A 4-node ISS-PBFT cluster with two nodes crashed at t=0 and the two live
   ones still answering the routing view: nothing can commit. *)
let two_down_cluster () =
  let module Cluster = Runner.Cluster in
  let cluster = Cluster.create ~system:(Cluster.Iss Core.Config.PBFT) ~n:4 ~seed:1L () in
  Runner.Faults.apply
    (Runner.Faults.make ~name:"two down"
       [ Runner.Faults.Crash { node = 2; at_s = 0.0 }; Crash { node = 3; at_s = 0.0 } ])
    cluster;
  Cluster.start cluster;
  cluster

(* The resubmission sweeper runs every 2 s and acts only on requests out for
   over 5 s: each re-send spends one unit of the retry budget, and a request
   whose budget is spent is given up.  Requests submitted during [0, 1) s
   stall at the 6 s sweep. *)
let test_sweeper_rule () =
  let module Cluster = Runner.Cluster in
  let gave_up_at ~retry_budget times =
    let cluster = two_down_cluster () in
    Runner.Workload.start ~cluster ~rate:200.0 ~resubmit:true ~retry_budget
      ~sweep_until:(Sim.Time_ns.sec 20) ~until:(Sim.Time_ns.ms 990) ();
    let counts =
      List.map
        (fun s ->
          Sim.Engine.run ~until:(Sim.Time_ns.of_sec_f s) (Cluster.engine cluster);
          Cluster.gave_up_count cluster)
        times
    in
    let submitted = Cluster.submitted cluster in
    check_bool "requests submitted" true (submitted > 100);
    check_int "nothing committed" 0 (Cluster.delivered_quorum cluster);
    (submitted, counts)
  in
  (match gave_up_at ~retry_budget:0 [ 5.9; 6.1 ] with
  | submitted, [ before; after ] ->
      check_int "budget 0: nothing given up by t=5.9 s" 0 before;
      check_int "budget 0: all given up by the 6 s sweep" submitted after
  | _ -> assert false);
  match gave_up_at ~retry_budget:1 [ 6.1; 7.9; 8.1 ] with
  | submitted, [ at6; before; after ] ->
      check_int "budget 1: the 6 s sweep re-sends" 0 at6;
      check_int "budget 1: nothing given up by t=7.9 s" 0 before;
      check_int "budget 1: all given up by the 8 s sweep" submitted after
  | _ -> assert false

(* One client->node copy: a live node's client-facing receive NIC is charged
   at once, and the node queues the request only once the engine reaches
   [at] + propagation + that NIC's queueing delay.  A crashed node is
   neither charged nor sent anything. *)
let test_send_request () =
  let module Cluster = Runner.Cluster in
  let cluster = two_down_cluster () in
  let engine = Cluster.engine cluster in
  Sim.Engine.run ~until:(Sim.Time_ns.ms 100) engine;
  let signed = Core.Config.client_signatures (Cluster.config cluster) in
  let r = Proto.Request.make ~client:42 ~ts:0 ~signed ~submitted_at:(Sim.Engine.now engine) () in
  let backlog dst =
    Sim.Network.nic_backlog (Cluster.network cluster) ~endpoint:dst ~dir:`Rx
      ~peer:Sim.Network.Client
  in
  let added dst = Core.Node.bucket_queue_added (Cluster.nodes cluster).(dst) in
  let at = Sim.Time_ns.add (Sim.Engine.now engine) (Sim.Time_ns.ms 50) in
  check_int "client NIC idle" 0 (backlog 1);
  Cluster.send_request cluster ~at ~dst:1 r;
  let queue = backlog 1 in
  check_bool "client NIC charged" true (queue > 0);
  let client_dc = 42 mod Array.length Sim.Topology.datacenters in
  let prop = Sim.Topology.latency client_dc (Sim.Topology.assign_uniform ~n:4).(1) in
  let arrival = Sim.Time_ns.add at (prop + queue) in
  Sim.Engine.run ~until:(arrival - 1) engine;
  check_int "not queued before arrival" 0 (added 1);
  Sim.Engine.run ~until:arrival engine;
  check_int "queued at arrival" 1 (added 1);
  let pending = Sim.Engine.pending engine in
  Cluster.send_request cluster ~at:(Sim.Engine.now engine) ~dst:3 r;
  check_int "crashed node not charged" 0 (backlog 3);
  check_int "crashed node sent nothing" pending (Sim.Engine.pending engine)

(* Paper scale must not cost memory before any request arrives: per-node
   request state (bucket rings, the request index, proposal records) grows
   with use, so ISS-PBFT at n=128 leaves well under 100 MB live after
   [create] + [start]. *)
let test_paper_scale_setup_memory () =
  let module Cluster = Runner.Cluster in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let cluster = Cluster.create ~system:(Cluster.Iss Core.Config.PBFT) ~n:128 ~seed:42L () in
  Cluster.start cluster;
  Gc.compact ();
  let live_words = (Gc.stat ()).Gc.live_words - before in
  let live_mb = float_of_int (live_words * (Sys.word_size / 8)) /. 1e6 in
  ignore (Sys.opaque_identity cluster);
  if live_mb >= 100.0 then Alcotest.failf "n=128 holds %.1f MB live after start" live_mb

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
          Alcotest.test_case "figure faults" `Quick test_figure_faults;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "liveness names a lost request" `Quick
            test_liveness_names_lost_request;
          Alcotest.test_case "request terminal without resubmission" `Quick
            test_request_terminal_without_resubmission;
        ] );
      ( "clients",
        [
          Alcotest.test_case "sweeper re-sends or gives up" `Quick test_sweeper_rule;
          Alcotest.test_case "send_request is one hop" `Quick test_send_request;
        ] );
      ( "memory",
        [ Alcotest.test_case "n=128 set-up under 100 MB live" `Quick test_paper_scale_setup_memory ]
      );
      ( "mir-gate",
        [
          Alcotest.test_case "gate protocol" `Quick test_mir_gate;
          Alcotest.test_case "forged primary ignored" `Quick test_mir_rejects_wrong_primary;
        ] );
    ]
