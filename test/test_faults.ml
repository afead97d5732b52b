(* The chaos harness: fault-schedule DSL, crash-recovery, partition healing,
   client retransmission over a lossy network, and schedule determinism.

   Every scenario run enables the cross-node invariant checker (safety +
   exactly-once on every delivery) and ends with the liveness check (every
   submitted request reached its reply quorum), so a regression in view
   change, state transfer, block sync or log repair fails loudly here.

   Runs use a shortened configuration (small epochs, tight timeouts) so the
   post-heal grace period fits in a test budget; the full-size randomized
   sweep lives in test_chaos.ml behind the [chaos] alias. *)

module Time_ns = Sim.Time_ns
module Faults = Runner.Faults
module Adversary = Runner.Adversary
module Cluster = Runner.Cluster

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* DSL unit tests *)

let test_validate_rejects () =
  let bad spec msg =
    match Faults.validate (Faults.make ~name:"bad" spec) ~n:4 with
    | Ok () -> Alcotest.failf "validate accepted %s" msg
    | Error _ -> ()
  in
  bad [ Faults.Crash { node = 9; at_s = 1.0 } ] "an out-of-range node";
  bad [ Faults.Drop { prob = 1.5; from_s = 0.0; until_s = 5.0 } ] "drop probability > 1";
  bad
    [ Faults.Split { minority = [ 0; 1 ]; from_s = 0.0; until_s = 5.0 } ]
    "a split without a majority";
  bad [ Faults.Isolate { node = 0; from_s = 5.0; until_s = 2.0 } ] "an inverted window";
  match
    Faults.validate
      (Faults.make ~name:"ok" [ Faults.Crash_recover { node = 1; at_s = 1.0; down_s = 3.0 } ])
      ~n:4
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate rejected a good schedule: %s" e

let test_named_scenarios () =
  List.iter
    (fun name ->
      if name <> "chaos" then
        match Faults.named ~n:4 name with
        | Ok sc ->
            check_bool (name ^ " validates") true (Faults.validate sc ~n:4 = Ok ());
            check_bool (name ^ " has a heal time") true (Faults.heal_s sc > 0.0)
        | Error e -> Alcotest.failf "named %s: %s" name e)
    Faults.scenario_names;
  match Faults.named ~n:4 "no-such-scenario" with
  | Ok _ -> Alcotest.fail "named accepted an unknown scenario"
  | Error _ -> ()

(* Exhaustive by construction: the inner match must cover every [spec]
   constructor (no wildcard), so adding a fault kind fails to compile until
   its heal time is decided here — keeping [heal_s] uniform across window
   specs. *)
let test_heal_time_all_constructors () =
  let expected (s : Faults.spec) =
    match s with
    | Faults.Crash { at_s; _ } | Faults.Recover { at_s; _ } -> at_s
    | Faults.Crash_recover { at_s; down_s; _ } -> at_s +. down_s
    | Faults.Isolate { until_s; _ }
    | Faults.Split { until_s; _ }
    | Faults.Drop { until_s; _ }
    | Faults.Straggle { until_s; _ }
    | Faults.Slow_link { until_s; _ }
    | Faults.Byzantine { until_s; _ } ->
        until_s
  in
  let one_of_each =
    [
      Faults.Crash { node = 0; at_s = 3.0 };
      Faults.Recover { node = 0; at_s = 7.0 };
      Faults.Crash_recover { node = 1; at_s = 2.0; down_s = 4.0 };
      Faults.Isolate { node = 2; from_s = 1.0; until_s = 5.0 };
      Faults.Split { minority = [ 3 ]; from_s = 1.0; until_s = 6.0 };
      Faults.Drop { prob = 0.05; from_s = 0.5; until_s = 4.5 };
      Faults.Straggle { node = 2; from_s = 2.0; until_s = 9.0 };
      Faults.Slow_link { a = 0; b = 1; extra = Time_ns.ms 100; from_s = 1.0; until_s = 8.0 };
      Faults.Byzantine { node = 1; attack = Adversary.Equivocate; from_s = 2.0; until_s = 11.0 };
      Faults.Byzantine
        { node = 1; attack = Adversary.Censor { buckets = [] }; from_s = 2.0; until_s = 12.0 };
      Faults.Byzantine { node = 1; attack = Adversary.Corrupt_sig; from_s = 2.0; until_s = 13.0 };
      Faults.Byzantine { node = 1; attack = Adversary.Replay; from_s = 2.0; until_s = 14.0 };
      Faults.Byzantine
        { node = 1; attack = Adversary.Bad_checkpoint; from_s = 2.0; until_s = 15.0 };
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-9))
        "heal time of a singleton schedule" (expected s)
        (Faults.heal_s (Faults.make ~name:"one" [ s ])))
    one_of_each;
  Alcotest.(check (float 1e-9))
    "heal time of the whole schedule is the latest event" 15.0
    (Faults.heal_s (Faults.make ~name:"all" one_of_each))

let test_random_deterministic () =
  let show sc = Format.asprintf "%a" Faults.pp sc in
  let a = Faults.random ~seed:42L ~n:4 ~duration_s:60.0 in
  let b = Faults.random ~seed:42L ~n:4 ~duration_s:60.0 in
  Alcotest.(check string) "same seed, same schedule" (show a) (show b);
  check_bool "random schedule validates" true (Faults.validate a ~n:4 = Ok ());
  check_bool "random schedule is non-empty" true (Faults.spec a <> [])

(* ------------------------------------------------------------------ *)
(* Scenario runs *)

let run_scenario ~system sc =
  let n = 4 in
  let cluster = Cluster.create ~tweak:Faults.fast ~system ~n ~seed:7L () in
  (match Faults.validate sc ~n with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scenario %s: %s" (Faults.name sc) e);
  Faults.apply sc cluster;
  Cluster.enable_invariants cluster;
  Cluster.start cluster;
  let until = Time_ns.of_sec_f 30.0 in
  let run_until = Faults.checked_until sc (Cluster.config cluster) ~duration_s:30.0 in
  Runner.Workload.start ~cluster ~rate:100.0 ~resubmit:true ~sweep_until:run_until ~until ();
  Sim.Engine.run ~until:run_until (Cluster.engine cluster);
  (* Raises Invariant_violation with a readable report on a missing request. *)
  Cluster.check_liveness cluster;
  check_bool "workload submitted requests" true (Cluster.submitted cluster > 0);
  check_int "every request reached its reply quorum" (Cluster.submitted cluster)
    (Cluster.delivered_quorum cluster);
  cluster

let run_named ~system name =
  match Faults.named ~n:4 name with
  | Ok sc -> run_scenario ~system sc
  | Error e -> Alcotest.failf "named %s: %s" name e

(* The faulted node must be back, caught up and delivering — not merely
   tolerated by the rest of the cluster. *)
let check_rejoined cluster ~node =
  let nodes = Cluster.nodes cluster in
  check_bool "victim is back up" false (Core.Node.is_halted nodes.(node));
  check_bool "victim delivered requests" true (Core.Node.delivered_count nodes.(node) > 0);
  let max_epoch =
    Array.fold_left (fun acc nd -> max acc (Core.Node.current_epoch nd)) 0 nodes
  in
  check_bool "victim caught up to the cluster epoch" true
    (Core.Node.current_epoch nodes.(node) >= max_epoch - 1)

(* Named scenarios: crash-recover crashes node 1, partition-heal isolates
   node n-1 (see Faults.named). *)
let test_crash_recover system () =
  let cluster = run_named ~system:(Cluster.Iss system) "crash-recover" in
  check_rejoined cluster ~node:1

let test_partition_heal system () =
  let cluster = run_named ~system:(Cluster.Iss system) "partition-heal" in
  check_rejoined cluster ~node:3

(* ------------------------------------------------------------------ *)
(* Determinism: the same chaos schedule under the same seed must replay to
   byte-identical delivered logs. *)

let fingerprint cluster =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun node ->
      Buffer.add_string buf
        (Printf.sprintf "n%d(%d):" (Core.Node.id node) (Core.Node.delivered_count node));
      let log = Core.Node.log node in
      (* Start at the pruned horizon: GC may have dropped the delivered
         prefix, and [get] reports pruned positions as absent. *)
      let sn = ref (Core.Log.pruned_below log) in
      let continue_ = ref true in
      while !continue_ do
        match Core.Log.get log ~sn:!sn with
        | None -> continue_ := false
        | Some p ->
            Buffer.add_string buf (Iss_crypto.Hash.short (Proto.Proposal.digest p));
            incr sn
      done;
      Buffer.add_char buf '\n')
    (Cluster.nodes cluster);
  Buffer.contents buf

let test_chaos_determinism () =
  let run () =
    let sc = Faults.random ~seed:99L ~n:4 ~duration_s:30.0 in
    let cluster = run_scenario ~system:(Cluster.Iss Core.Config.Raft) sc in
    (fingerprint cluster, Cluster.submitted cluster, Cluster.delivered_quorum cluster)
  in
  let log1, sub1, del1 = run () in
  let log2, sub2, del2 = run () in
  check_int "same submissions" sub1 sub2;
  check_int "same deliveries" del1 del2;
  Alcotest.(check string) "identical delivered logs" log1 log2

(* ------------------------------------------------------------------ *)
(* Client retransmission over a lossy network.

   The modeled workload injects requests directly into nodes, bypassing the
   network — so this test wires real Client processes through the simulated
   WAN (the examples/quickstart.ml pattern): requests, replies and bucket
   updates all cross the lossy network, and only the client's
   exponential-backoff retransmission plus node-side duplicate suppression
   can get every request delivered exactly once. *)

let test_lossy_retransmission () =
  let n = 4 in
  let num_clients = 3 in
  let per_client = 20 in
  let config = Faults.fast (Core.Config.pbft_default ~n) in
  let engine = Sim.Engine.create () in
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let rng = Sim.Rng.create ~seed:11L in
  let net = Sim.Network.create engine ~rng in
  let placement = Sim.Topology.assign_uniform ~n in
  let send_from src ~dst msg =
    Sim.Network.send net ~src ~dst ~size:(Proto.Message.wire_size msg) msg
  in
  (* (node, request id) -> request_sn: the per-node reply cache, doubling as
     the exactly-once check. *)
  let reply_cache = Hashtbl.create 256 in
  let duplicate = ref None in
  let hooks =
    {
      Core.Node.default_hooks with
      on_deliver =
        Some
          (fun node (d : Core.Log.delivery) ->
            let me = Core.Node.id node in
            let key = (me, d.request.Proto.Request.id) in
            if Hashtbl.mem reply_cache key then
              duplicate :=
                Some
                  (Format.asprintf "node %d delivered request %a twice" me Proto.Request.pp_id
                     d.request.Proto.Request.id)
            else Hashtbl.replace reply_cache key d.request_sn;
            send_from me ~dst:d.request.Proto.Request.id.Proto.Request.client
              (Proto.Message.Reply
                 { req_id = d.request.Proto.Request.id; sn = d.request_sn; replier = me }));
      on_duplicate =
        (* A retransmission of an already-delivered request: answer from the
           reply cache (the original reply may have been dropped). *)
        Some
          (fun node (r : Proto.Request.t) ->
            let me = Core.Node.id node in
            match Hashtbl.find_opt reply_cache (me, r.Proto.Request.id) with
            | Some sn ->
                send_from me ~dst:r.Proto.Request.id.Proto.Request.client
                  (Proto.Message.Reply { req_id = r.Proto.Request.id; sn; replier = me })
            | None -> ());
      on_epoch_start =
        (fun node ~epoch ~leaders:_ ~bucket_leaders ->
          for c = n to n + num_clients - 1 do
            send_from (Core.Node.id node) ~dst:c
              (Proto.Message.Bucket_update { epoch; bucket_leaders })
          done);
    }
  in
  let nodes =
    Array.init n (fun id ->
        Core.Node.create ~config ~id ~clock ~send:(send_from id)
          ~orderer_factory:Pbft.Pbft_orderer.factory ~hooks ())
  in
  Array.iteri
    (fun id node ->
      Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node ~datacenter:placement.(id)
        ~handler:(fun ~src ~size:_ msg -> Core.Node.on_message node ~src msg))
    nodes;
  let clients =
    Array.init num_clients (fun i ->
        Core.Client.create ~config ~id:(n + i) ~clock ~send:(send_from (n + i)) ())
  in
  Array.iteri
    (fun i client ->
      Sim.Network.add_endpoint net ~id:(n + i) ~category:Sim.Network.Client
        ~datacenter:(i * 5 mod 16)
        ~handler:(fun ~src ~size:_ msg -> Core.Client.on_message client ~src msg))
    clients;
  Array.iter Core.Node.start nodes;
  (* Ten percent of every message — requests and replies included — is lost
     during the first 25 seconds. *)
  ignore
    (Sim.Engine.schedule_at engine ~at:(Time_ns.of_sec_f 0.5) (fun () ->
         Sim.Network.set_drop_probability net 0.1));
  ignore
    (Sim.Engine.schedule_at engine ~at:(Time_ns.of_sec_f 25.0) (fun () ->
         Sim.Network.set_drop_probability net 0.0));
  Array.iter
    (fun client ->
      for k = 0 to per_client - 1 do
        ignore
          (Sim.Engine.schedule engine ~delay:(Time_ns.ms (500 * k)) (fun () ->
               Core.Client.submit_next client))
      done)
    clients;
  Sim.Engine.run ~until:(Time_ns.sec 120) engine;
  (match !duplicate with
  | Some report -> Alcotest.fail report
  | None -> ());
  Array.iteri
    (fun i client ->
      check_int
        (Printf.sprintf "client %d confirmed all its requests" (n + i))
        per_client (Core.Client.completed client))
    clients;
  let retx = Array.fold_left (fun acc c -> acc + Core.Client.retransmissions c) 0 clients in
  check_bool "the lossy window forced retransmissions" true (retx > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "dsl",
        [
          Alcotest.test_case "validate rejects bad schedules" `Quick test_validate_rejects;
          Alcotest.test_case "named scenarios resolve" `Quick test_named_scenarios;
          Alcotest.test_case "heal time covers every constructor" `Quick
            test_heal_time_all_constructors;
          Alcotest.test_case "random schedules are deterministic" `Quick
            test_random_deterministic;
        ] );
      ( "crash-recover",
        [
          Alcotest.test_case "iss-pbft" `Quick (test_crash_recover Core.Config.PBFT);
          Alcotest.test_case "iss-hotstuff" `Quick (test_crash_recover Core.Config.HotStuff);
          Alcotest.test_case "iss-raft" `Quick (test_crash_recover Core.Config.Raft);
        ] );
      ( "partition-heal",
        [
          Alcotest.test_case "iss-raft" `Quick (test_partition_heal Core.Config.Raft);
          Alcotest.test_case "iss-hotstuff" `Quick (test_partition_heal Core.Config.HotStuff);
        ] );
      ( "determinism",
        [ Alcotest.test_case "chaos schedule replays identically" `Quick test_chaos_determinism ] );
      ( "retransmission",
        [
          Alcotest.test_case "lossy network, exactly-once delivery" `Quick
            test_lossy_retransmission;
        ] );
    ]
