(* Overload robustness: node-side admission control and shedding, wire
   pushback, client backoff jitter and retry budgets, and the end-to-end
   flow-control conformance rules (exactly-once or explicit give-up). *)

module Time_ns = Sim.Time_ns

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Client side: jitter, retry budgets, Busy pushback *)

type sent = { dst : int; at : Time_ns.t; msg : Proto.Message.t }

let make_client ?(n = 4) ?(id = 100) ?jitter ?retry_budget ~engine () =
  let config = Core.Config.pbft_default ~n in
  let sent = ref [] in
  let gave_up = ref [] in
  let client =
    Core.Client.create ~config ~id ~clock:(Core.Orderer_intf.Clock.of_engine engine)
      ~send:(fun ~dst msg -> sent := { dst; at = Sim.Engine.now engine; msg } :: !sent)
      ?jitter ?retry_budget
      ~retx_base:(Time_ns.sec 1) ~retx_max:(Time_ns.sec 8)
      ~on_give_up:(fun r -> gave_up := r :: !gave_up)
      ()
  in
  (client, sent, gave_up)

(* Distinct send instants: one submission or retransmission fans out to up
   to three target nodes, all at the same engine time. *)
let request_send_times sent =
  List.sort_uniq compare
    (List.filter_map
       (fun { at; msg; _ } ->
         match msg with Proto.Message.Request_msg _ -> Some at | _ -> None)
       !sent)

let test_jitter_desynchronizes () =
  (* Two clients with identical backoff parameters but different ids: with
     jitter on, their retransmission schedules must diverge (each draws from
     its own id-seeded RNG).  This is the regression guard for lockstep
     retransmission storms. *)
  let engine = Sim.Engine.create () in
  let c1, sent1, _ = make_client ~id:100 ~jitter:0.25 ~engine () in
  let c2, sent2, _ = make_client ~id:200 ~jitter:0.25 ~engine () in
  Core.Client.submit_next c1;
  Core.Client.submit_next c2;
  Sim.Engine.run ~until:(Time_ns.sec 30) engine;
  let t1 = request_send_times sent1 and t2 = request_send_times sent2 in
  check_bool "both retransmitted" true (List.length t1 > 2 && List.length t2 > 2);
  (* Drop the initial sends (both at t=0 by construction) and compare the
     retransmission instants pairwise. *)
  let retx l = List.tl l in
  check_bool "jittered schedules diverge" true (retx t1 <> retx t2);
  (* Control: with jitter off the two schedules are in lockstep. *)
  let engine = Sim.Engine.create () in
  let c3, sent3, _ = make_client ~id:100 ~jitter:0.0 ~engine () in
  let c4, sent4, _ = make_client ~id:200 ~jitter:0.0 ~engine () in
  Core.Client.submit_next c3;
  Core.Client.submit_next c4;
  Sim.Engine.run ~until:(Time_ns.sec 30) engine;
  check_bool "no jitter means lockstep" true
    (request_send_times sent3 = request_send_times sent4)

let test_retry_budget_gives_up () =
  let engine = Sim.Engine.create () in
  let client, _, gave_up = make_client ~retry_budget:3 ~jitter:0.25 ~engine () in
  Core.Client.submit_next client;
  check_int "in flight" 1 (Core.Client.in_flight client);
  Sim.Engine.run ~until:(Time_ns.sec 60) engine;
  check_int "budget spent: request abandoned" 1 (List.length !gave_up);
  check_int "gave_up counter" 1 (Core.Client.gave_up client);
  check_int "no longer in flight" 0 (Core.Client.in_flight client);
  check_int "exactly budget retransmissions" 3 (Core.Client.retransmissions client)

let test_busy_defers_retransmission () =
  let engine = Sim.Engine.create () in
  let client, sent, _ = make_client ~engine () in
  Core.Client.submit_next client;
  let req_id = { Proto.Request.client = 100; ts = 0 } in
  (* The node pushes back with a 5 s hint: the next retransmission must not
     fire before t=5s even though retx_base is 1 s. *)
  Core.Client.on_message client ~src:0
    (Proto.Message.Busy { req_id; retry_after = Time_ns.sec 5; shed = true });
  check_int "pushback accepted" 1 (Core.Client.pushbacks_received client);
  Sim.Engine.run ~until:(Time_ns.sec 20) engine;
  (match request_send_times sent with
  | _initial :: first_retx :: _ ->
      check_bool
        (Printf.sprintf "first retransmission honours the hint (%.2fs)"
           (Time_ns.to_sec_f first_retx))
        true
        (first_retx >= Time_ns.sec 5)
  | _ -> Alcotest.fail "expected at least one retransmission");
  check_bool "still retransmitting after the hint" true
    (List.length (request_send_times sent) > 2)

(* ------------------------------------------------------------------ *)
(* Node side: admission control and shed policies *)

type pushback_event = { p_req : Proto.Request.t; p_shed : bool }

type node_fixture = {
  engine : Sim.Engine.t;
  nodes : Core.Node.t array;
  pushbacks : pushback_event list ref;  (* reversed *)
}

let bounded ?(shed = Core.Config.Reject_new) capacity = Core.Config.Bounded { capacity; shed }

let build_nodes admission =
  let n = 4 in
  let config =
    { (Core.Config.pbft_default ~n) with Core.Config.buckets_per_leader = 1; admission }
  in
  let engine = Sim.Engine.create () in
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let rng = Sim.Rng.create ~seed:7L in
  let net = Sim.Network.create engine ~rng in
  let placement = Sim.Topology.assign_uniform ~n in
  let pushbacks = ref [] in
  let hooks =
    {
      Core.Node.default_hooks with
      on_pushback =
        Some (fun _ r ~retry_after:_ ~shed -> pushbacks := { p_req = r; p_shed = shed } :: !pushbacks);
    }
  in
  let nodes =
    Array.init n (fun id ->
        Core.Node.create ~config ~id ~clock
          ~send:(fun ~dst msg ->
            Sim.Network.send net ~src:id ~dst ~size:(Proto.Message.wire_size msg) msg)
          ~orderer_factory:Pbft.Pbft_orderer.factory ~hooks ())
  in
  Array.iteri
    (fun id node ->
      Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node
        ~datacenter:placement.(id)
        ~handler:(fun ~src ~size:_ msg -> Core.Node.on_message node ~src msg))
    nodes;
  { engine; nodes; pushbacks }

(* A stream of requests that all map to the same bucket (bucket_of_id mixes
   client and timestamp, so same-client requests spread over buckets).  Each
   client's timestamps stay inside its watermark window. *)
let same_bucket_requests ~num_buckets ~count =
  let target = ref (-1) in
  let out = ref [] and found = ref 0 in
  let client = ref 1000 in
  let ts = ref 0 in
  while !found < count do
    let r = Proto.Request.make ~client:!client ~ts:!ts ~submitted_at:Time_ns.zero () in
    let b = Proto.Request.bucket_of_id ~num_buckets r.Proto.Request.id in
    if !target = -1 then target := b;
    if b = !target then begin
      out := r :: !out;
      incr found
    end;
    incr ts;
    if !ts = Core.Config.client_watermark_window then begin
      incr client;
      ts := 0
    end
  done;
  List.rev !out

let test_reject_new_sheds_incoming () =
  let fx = build_nodes (bounded 2) in
  let node = fx.nodes.(0) in
  let reqs = same_bucket_requests ~num_buckets:4 ~count:5 in
  List.iter (Core.Node.submit node) reqs;
  check_int "three incoming requests shed" 3 (Core.Node.shed_count node);
  let shed = List.filter (fun e -> e.p_shed) !(fx.pushbacks) in
  check_int "shed events surfaced via the hook" 3 (List.length shed);
  (* Reject_new drops the incoming request, not a queued victim. *)
  let expected = List.filteri (fun i _ -> i >= 2) reqs in
  let shed_ids = List.rev_map (fun e -> e.p_req.Proto.Request.id) shed in
  check_bool "the newest requests were the ones shed" true
    (List.sort compare shed_ids
    = List.sort compare (List.map (fun (r : Proto.Request.t) -> r.Proto.Request.id) expected));
  (* A retransmission of a queued request is never shed: admission treats
     it as a duplicate, not new load. *)
  let shed_before = Core.Node.shed_count node in
  Core.Node.submit node (List.hd reqs);
  check_int "retransmission of a queued request not shed" shed_before
    (Core.Node.shed_count node)

let test_drop_oldest_evicts_victim () =
  let fx = build_nodes (bounded ~shed:Core.Config.Drop_oldest 2) in
  let node = fx.nodes.(0) in
  let reqs = same_bucket_requests ~num_buckets:4 ~count:3 in
  List.iter (Core.Node.submit node) reqs;
  check_int "one request shed" 1 (Core.Node.shed_count node);
  (match List.filter (fun e -> e.p_shed) !(fx.pushbacks) with
  | [ e ] ->
      check_bool "the oldest queued request was the victim" true
        (e.p_req.Proto.Request.id = (List.hd reqs).Proto.Request.id)
  | _ -> Alcotest.fail "expected exactly one shed event")

(* An evicted request that the client re-submits re-enters at its original
   arrival position: it is again the oldest, so the next eviction takes it
   rather than a request that arrived after it. *)
let test_drop_oldest_rearrival_keeps_place () =
  let fx = build_nodes (bounded ~shed:Core.Config.Drop_oldest 2) in
  let node = fx.nodes.(0) in
  let r0, r1, r2, r3 =
    match same_bucket_requests ~num_buckets:4 ~count:4 with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  List.iter (Core.Node.submit node) [ r0; r1; r2; r0; r3 ];
  let key (r : Proto.Request.t) = Proto.Request.id_key r.id in
  let victims =
    List.rev_map (fun e -> key e.p_req) (List.filter (fun e -> e.p_shed) !(fx.pushbacks))
  in
  (* r2 evicts r0; r0's return evicts r1 and re-enters ahead of r2; r3
     evicts r0 again. *)
  Alcotest.(check (list int)) "victims" (List.map key [ r0; r1; r0 ]) victims

let test_advisory_pushback_below_shedding () =
  let fx = build_nodes (bounded 4) in
  let node = fx.nodes.(0) in
  let reqs = same_bucket_requests ~num_buckets:4 ~count:4 in
  List.iter (Core.Node.submit node) reqs;
  check_int "nothing shed up to capacity" 0 (Core.Node.shed_count node);
  let advisory = List.filter (fun e -> not e.p_shed) !(fx.pushbacks) in
  (* Occupancy reaches the 75% watermark at the third request and stays
     there: requests 3 and 4 draw advisory warnings. *)
  check_int "advisory pushback above the watermark" 2 (List.length advisory);
  check_int "pushback counter includes advisories" 2 (Core.Node.pushback_count node)

(* Unbounded admission never sheds or pushes back, however full a bucket
   gets: the zero-perturbation guarantee behind the pinned conformance
   fingerprints.  4,097 requests land in one bucket, so a gate that treats
   [Unbounded] as some finite default capacity (4,096, say) fails here. *)
let test_unbounded_admission_is_inert () =
  check_bool "admission defaults to unbounded" true
    ((Core.Config.pbft_default ~n:4).Core.Config.admission = Core.Config.Unbounded);
  let fx = build_nodes Core.Config.Unbounded in
  let node = fx.nodes.(0) in
  let count = 4097 in
  List.iter (Core.Node.submit node) (same_bucket_requests ~num_buckets:4 ~count);
  check_int "every request queued" count (Core.Node.pending_requests node);
  check_int "nothing shed" 0 (Core.Node.shed_count node);
  check_int "nothing pushed back" 0 (Core.Node.pushback_count node);
  check_int "the pushback hook never fired" 0 (List.length !(fx.pushbacks))

(* ------------------------------------------------------------------ *)
(* End to end: an overload conformance scenario passes the full harness
   (bounded admission, shedding and give-ups active, fingerprints stable
   across instrumented and bare runs). *)

let test_overload_scenario_conformance () =
  let sc =
    {
      Conform.Scenario.seed = 424242L;
      n = 4;
      rate = 150.0;
      num_clients = 4;
      duration_s = 4.0;
      faults = [];
      overload =
        Some
          (Conform.Overload.Flash_crowd
             { at_s = 1.0; factor = 8.0; len_s = 1.5; drop_oldest = false });
    }
  in
  match Conform.Harness.check_protocol sc Core.Config.PBFT with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Conform.Harness.failure_message f)

let test_overload_scenario_drop_oldest () =
  let sc =
    {
      Conform.Scenario.seed = 434343L;
      n = 4;
      rate = 150.0;
      num_clients = 4;
      duration_s = 4.0;
      faults = [];
      overload = Some (Conform.Overload.Hot_bucket { skew = 1.2; drop_oldest = true });
    }
  in
  match Conform.Harness.check_protocol sc Core.Config.PBFT with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Conform.Harness.failure_message f)

(* ------------------------------------------------------------------ *)
(* Property: under any interleaving of shedding, retransmission,
   crash/recovery and epoch turnover, no correct node ever delivers a
   request twice, and every request is delivered or explicitly gives up.
   The online invariant checker raises on double delivery and on a
   delivered-then-shed contradiction; check_liveness accepts only
   delivered-or-gave-up terminal states. *)

let overload_cluster_prop seed =
  let module Cluster = Runner.Cluster in
  let tweak c =
    {
      c with
      Core.Config.min_epoch_length = 32;
      min_segment_size = 4;
      epoch_change_timeout = Time_ns.sec 4;
      admission =
        bounded 8
          ~shed:(if seed mod 2 = 0 then Core.Config.Reject_new else Core.Config.Drop_oldest);
    }
  in
  let engine = Sim.Engine.create () in
  let cluster =
    Cluster.create ~engine ~tweak ~system:(Cluster.Iss Core.Config.PBFT) ~n:4
      ~seed:(Int64.of_int seed) ()
  in
  Cluster.enable_invariants cluster;
  Cluster.start cluster;
  let rng = Sim.Rng.create ~seed:(Int64.of_int ((seed * 31) + 5)) in
  (* A crash/recovery window somewhere inside the overload burst. *)
  let node = Sim.Rng.int rng 4 in
  let crash_at = 0.5 +. Sim.Rng.float rng 2.5 in
  let down = 0.5 +. Sim.Rng.float rng 1.5 in
  Cluster.crash_at cluster ~node ~at:(Time_ns.of_sec_f crash_at);
  Cluster.recover_at cluster ~node ~at:(Time_ns.of_sec_f (crash_at +. down));
  let until = Time_ns.sec 4 in
  let run_until = Time_ns.sec 25 in
  Runner.Workload.start ~cluster ~rate:150.0 ~num_clients:(2 + Sim.Rng.int rng 4)
    ~resubmit:true
    ~shape:
      (Runner.Workload.Flash_crowd
         { at_s = 0.5 +. Sim.Rng.float rng 1.0; factor = 10.0; len_s = 1.5 })
    ~retry_budget:2 ~shape_seed:(Int64.of_int (seed + 1))
    ~sweep_until:run_until ~until ();
  match
    Sim.Engine.run ~until:run_until engine;
    Cluster.check_liveness cluster
  with
  | () -> true
  | exception Cluster.Invariant_violation report -> Alcotest.fail report

let never_double_deliver =
  QCheck.Test.make ~count:8 ~name:"overload: exactly-once or explicit give-up"
    QCheck.(map (fun i -> 1 + (i mod 1000)) small_nat)
    overload_cluster_prop

let () =
  Alcotest.run "overload"
    [
      ( "client",
        [
          Alcotest.test_case "jitter desynchronizes backoff" `Quick
            test_jitter_desynchronizes;
          Alcotest.test_case "retry budget gives up" `Quick test_retry_budget_gives_up;
          Alcotest.test_case "busy pushback defers retransmission" `Quick
            test_busy_defers_retransmission;
        ] );
      ( "node",
        [
          Alcotest.test_case "reject-new sheds incoming" `Quick test_reject_new_sheds_incoming;
          Alcotest.test_case "drop-oldest evicts the oldest" `Quick
            test_drop_oldest_evicts_victim;
          Alcotest.test_case "drop-oldest re-arrival keeps its place" `Quick
            test_drop_oldest_rearrival_keeps_place;
          Alcotest.test_case "advisory pushback below shedding" `Quick
            test_advisory_pushback_below_shedding;
          Alcotest.test_case "unbounded admission is inert" `Quick
            test_unbounded_admission_is_inert;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "flash-crowd scenario conforms" `Slow
            test_overload_scenario_conformance;
          Alcotest.test_case "hot-bucket drop-oldest scenario conforms" `Slow
            test_overload_scenario_drop_oldest;
          QCheck_alcotest.to_alcotest never_double_deliver;
        ] );
    ]
