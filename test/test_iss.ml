(* Integration tests: full ISS clusters over the simulated WAN, checking
   the paper's SMR properties and fault-handling mechanisms end to end. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type cluster = {
  engine : Sim.Engine.t;
  net : Proto.Message.t Sim.Network.t;
  nodes : Core.Node.t array;
  deliveries : (int * Core.Log.delivery) list ref;  (* (node, delivery), reversed *)
}

let factory_for (config : Core.Config.t) =
  match config.Core.Config.protocol with
  | Core.Config.PBFT -> Pbft.Pbft_orderer.factory
  | Core.Config.HotStuff -> Hotstuff.Hotstuff_orderer.factory
  | Core.Config.Raft -> Raft.Raft_orderer.factory

let build ?(seed = 42L) ?(extra_hooks = fun h -> h) config =
  let engine = Sim.Engine.create () in
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let rng = Sim.Rng.create ~seed in
  let net = Sim.Network.create engine ~rng () in
  let n = config.Core.Config.n in
  let placement = Sim.Topology.assign_uniform ~n in
  let deliveries = ref [] in
  let hooks =
    extra_hooks
      {
        Core.Node.default_hooks with
        on_deliver = Some (fun node d -> deliveries := (Core.Node.id node, d) :: !deliveries);
      }
  in
  let nodes =
    Array.init n (fun id ->
        Core.Node.create ~config ~id ~clock
          ~send:(fun ~dst msg ->
            Sim.Network.send net ~src:id ~dst ~size:(Proto.Message.wire_size msg) msg)
          ~orderer_factory:(factory_for config) ~hooks ())
  in
  Array.iteri
    (fun id node ->
      Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node ~datacenter:placement.(id)
        ~handler:(fun ~src ~size:_ msg -> Core.Node.on_message node ~src msg))
    nodes;
  { engine; net; nodes; deliveries }

let submit_all c r = Array.iter (fun node -> Core.Node.submit node r) c.nodes

let submit_spread c ~clients ~per_client ~gap_ms =
  for k = 0 to (clients * per_client) - 1 do
    ignore
      (Sim.Engine.schedule c.engine ~delay:(Sim.Time_ns.ms (gap_ms * k)) (fun () ->
           let r =
             Proto.Request.make ~client:(1000 + (k mod clients)) ~ts:(k / clients)
               ~submitted_at:(Sim.Engine.now c.engine) ()
           in
           submit_all c r))
  done

let deliveries_at c node =
  List.rev (List.filter_map (fun (i, d) -> if i = node then Some d else None) !(c.deliveries))

(* ------------------------------------------------------------------ *)
(* SMR properties across protocols *)

let test_no_duplication config () =
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  (* Submit each request several times with retransmission gaps — the
     no-duplication guarantee must hold regardless. *)
  for k = 0 to 39 do
    for copy = 0 to 2 do
      ignore
        (Sim.Engine.schedule c.engine
           ~delay:(Sim.Time_ns.ms ((40 * k) + (1500 * copy)))
           (fun () ->
             let r =
               Proto.Request.make ~client:(500 + (k mod 4)) ~ts:(k / 4)
                 ~submitted_at:(Sim.Engine.now c.engine) ()
             in
             submit_all c r))
    done
  done;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 90) c.engine;
  let ds = deliveries_at c 0 in
  check_int "all 40 distinct requests delivered" 40 (List.length ds);
  let keys =
    List.map (fun (d : Core.Log.delivery) -> Proto.Request.id_key d.request.Proto.Request.id) ds
  in
  check_int "no duplicates (SMR no-duplication)" 40 (List.length (List.sort_uniq compare keys))

let test_total_order config () =
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  submit_spread c ~clients:8 ~per_client:10 ~gap_ms:30;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 90) c.engine;
  let d0 = deliveries_at c 0 in
  check_bool "node 0 delivered something" true (List.length d0 > 0);
  Array.iteri
    (fun i _ ->
      let di = deliveries_at c i in
      let common = min (List.length d0) (List.length di) in
      check_bool (Printf.sprintf "node %d made progress" i) true (common > 0);
      (* SMR2/SMR3: the delivery sequences agree on their common prefix. *)
      List.iteri
        (fun k ((a : Core.Log.delivery), (b : Core.Log.delivery)) ->
          if not (Proto.Request.equal_id a.request.Proto.Request.id b.request.Proto.Request.id)
          then Alcotest.failf "node %d diverges from node 0 at delivery %d" i k;
          check_int "same request sn" a.request_sn b.request_sn)
        (List.combine
           (List.filteri (fun k _ -> k < common) d0)
           (List.filteri (fun k _ -> k < common) di)))
    c.nodes;
  (* Eq. (2): request sequence numbers are exactly 0, 1, 2, ... *)
  List.iteri (fun k (d : Core.Log.delivery) -> check_int "dense request sns" k d.request_sn) d0

(* ------------------------------------------------------------------ *)
(* Fault handling *)

let short_epochs config = { config with Core.Config.min_epoch_length = 24 }

let test_crash_leader_progress () =
  let config = short_epochs (Core.Config.pbft_default ~n:4) in
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  submit_spread c ~clients:4 ~per_client:30 ~gap_ms:100;
  (* Crash node 1 early: its segments must fill with ⊥ via view change and
     the system must keep delivering (f = 1 tolerated). *)
  ignore
    (Sim.Engine.schedule c.engine ~delay:(Sim.Time_ns.ms 500) (fun () ->
         Sim.Network.crash c.net 1;
         Core.Node.halt c.nodes.(1)));
  Sim.Engine.run ~until:(Sim.Time_ns.sec 120) c.engine;
  let ds = deliveries_at c 0 in
  check_int "all 120 requests delivered despite crash" 120 (List.length ds);
  (* The crashed leader's positions show as ⊥ somewhere in the log. *)
  let log = Core.Node.log c.nodes.(0) in
  let nils = Core.Log.nil_entries log ~from_sn:0 ~to_sn:(Core.Log.first_undelivered log - 1) in
  check_bool "⊥ entries exist for the dead leader" true (List.length nils > 0);
  (* BLACKLIST: node 1 excluded from the current leader set. *)
  check_bool "crashed node not a leader anymore" false
    (Array.exists (fun l -> l = 1) (Core.Node.epoch_leaders c.nodes.(0)))

let test_epochs_advance () =
  let config = short_epochs (Core.Config.pbft_default ~n:4) in
  let epochs_seen = ref [] in
  let extra_hooks h =
    {
      h with
      Core.Node.on_epoch_start =
        (fun node ~epoch ~leaders:_ ~bucket_leaders:_ ->
          if Core.Node.id node = 0 then epochs_seen := epoch :: !epochs_seen);
    }
  in
  let c = build ~extra_hooks config in
  Array.iter Core.Node.start c.nodes;
  submit_spread c ~clients:4 ~per_client:50 ~gap_ms:50;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 60) c.engine;
  let epochs = List.rev !epochs_seen in
  check_bool "multiple epochs" true (List.length epochs >= 3);
  List.iteri (fun i e -> check_int "consecutive epochs" i e) epochs

let test_checkpoint_stability () =
  let config = short_epochs (Core.Config.pbft_default ~n:4) in
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  submit_spread c ~clients:4 ~per_client:40 ~gap_ms:40;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 60) c.engine;
  Array.iteri
    (fun i node ->
      match Core.Log.last_stable_checkpoint (Core.Node.log node) with
      | Some cert ->
          check_bool
            (Printf.sprintf "node %d checkpoint has quorum sigs" i)
            true
            (List.length cert.Proto.Message.cc_sigs >= 3);
          (* Verify every signature in the certificate. *)
          let material =
            Proto.Message.checkpoint_material ~epoch:cert.Proto.Message.cc_epoch
              ~max_sn:cert.Proto.Message.cc_max_sn ~root:cert.Proto.Message.cc_root
              ~req_count:cert.Proto.Message.cc_req_count
              ~policy:cert.Proto.Message.cc_policy
          in
          List.iter
            (fun (signer, s) ->
              check_bool "checkpoint sig valid" true
                (Iss_crypto.Signature.verify
                   (Iss_crypto.Signature.public_of_id signer)
                   material s))
            cert.Proto.Message.cc_sigs
      | None -> Alcotest.failf "node %d has no stable checkpoint" i)
    c.nodes

let test_state_transfer_after_partition () =
  let config = short_epochs (Core.Config.pbft_default ~n:4) in
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  submit_spread c ~clients:4 ~per_client:60 ~gap_ms:80;
  (* Partition node 3 away for a while; with n=4 and f=1 the rest keep
     going, so node 3 must catch up (live instances or state transfer). *)
  ignore
    (Sim.Engine.schedule c.engine ~delay:(Sim.Time_ns.sec 2) (fun () ->
         Sim.Network.set_partition c.net (Some (fun id -> if id = 3 then 1 else 0))));
  ignore
    (Sim.Engine.schedule c.engine ~delay:(Sim.Time_ns.sec 60) (fun () ->
         Sim.Network.set_partition c.net None));
  Sim.Engine.run ~until:(Sim.Time_ns.sec 240) c.engine;
  let frontier i = Core.Log.first_undelivered (Core.Node.log c.nodes.(i)) in
  check_bool "majority progressed during partition" true (frontier 0 > 0);
  (* Totality: node 3 catches up to the others after healing (within the
     last in-flight epoch). *)
  check_bool "node 3 caught up after heal" true (frontier 3 >= frontier 0 - 48)

let test_log_bounded_by_gc () =
  (* Long fault-free run over many epochs: GC must prune delivered entries
     behind the stable-checkpoint retention window, so each node's retained
     log stays bounded no matter how long the run is. *)
  let config =
    {
      (short_epochs (Core.Config.pbft_default ~n:4)) with
      (* Keep idle epochs turning over quickly so the run spans many of
         them: empty keep-alive batches are cut every epoch_change_timeout/2,
         so a short epoch-change timeout drives the idle tail of the run
         through many checkpoint/GC cycles. *)
      Core.Config.max_batch_timeout = Sim.Time_ns.ms 250;
      epoch_change_timeout = Sim.Time_ns.sec 2;
    }
  in
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  submit_spread c ~clients:4 ~per_client:200 ~gap_ms:20;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 120) c.engine;
  let epoch_len = config.Core.Config.min_epoch_length in
  Array.iteri
    (fun i node ->
      let log = Core.Node.log node in
      let frontier = Core.Log.first_undelivered log in
      if frontier <= 20 * epoch_len then
        Alcotest.failf "node %d only reached frontier %d (epoch %d) — expected > %d"
          i frontier (Core.Node.current_epoch node) (20 * epoch_len);
      check_bool (Printf.sprintf "node %d pruned" i) true (Core.Log.pruned_below log > 0);
      (* Retained = delivered-but-kept window + commit queue.  The bound is
         retention ([Log.retention_epochs], 4) + the current epoch + skew
         slack while certificates stabilize. *)
      let retained = frontier - Core.Log.pruned_below log + Core.Log.committed_ahead log in
      if retained > 8 * epoch_len then
        Alcotest.failf "node %d retains %d entries after %d delivered — GC is not keeping up"
          i retained frontier)
    c.nodes

let test_straggler_impact () =
  let config = short_epochs (Core.Config.pbft_default ~n:4) in
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  Core.Node.set_straggler c.nodes.(1) true;
  submit_spread c ~clients:4 ~per_client:30 ~gap_ms:50;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 120) c.engine;
  (* The straggler proposes empty batches, so requests in its buckets wait
     for re-assignment; everything still delivers eventually. *)
  let ds = deliveries_at c 0 in
  check_int "eventually all delivered despite straggler" 120 (List.length ds)

(* Randomized schedules: agreement and progress must hold for any seed and
   any crash time.  (Conflicting commits would raise inside Log.commit, so
   merely completing the run already checks SB agreement; we additionally
   compare delivery prefixes.) *)
let prop_agreement_random_crashes =
  QCheck.Test.make ~name:"agreement + progress under random crash schedules" ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 0 20_000))
    (fun (seed, crash_ms) ->
      let config = short_epochs (Core.Config.pbft_default ~n:4) in
      let c = build ~seed:(Int64.of_int seed) config in
      Array.iter Core.Node.start c.nodes;
      submit_spread c ~clients:4 ~per_client:20 ~gap_ms:60;
      let victim = 1 + (seed mod 3) in
      ignore
        (Sim.Engine.schedule c.engine ~delay:(Sim.Time_ns.ms crash_ms) (fun () ->
             Sim.Network.crash c.net victim;
             Core.Node.halt c.nodes.(victim)));
      Sim.Engine.run ~until:(Sim.Time_ns.sec 120) c.engine;
      let d0 = deliveries_at c 0 in
      let agree i =
        let di = deliveries_at c i in
        let common = min (List.length d0) (List.length di) in
        List.for_all2
          (fun (a : Core.Log.delivery) (b : Core.Log.delivery) ->
            Proto.Request.equal_id a.request.Proto.Request.id b.request.Proto.Request.id)
          (List.filteri (fun k _ -> k < common) d0)
          (List.filteri (fun k _ -> k < common) di)
      in
      List.length d0 > 0
      && List.for_all agree (List.filter (fun i -> i <> victim) [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* Byzantine-ish inputs *)

let test_invalid_signature_rejected () =
  let config = Core.Config.pbft_default ~n:4 in
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  (* Signed, but with node 1's key rather than client 700's. *)
  let bad =
    Proto.Request.sign
      (Iss_crypto.Signature.genkey ~id:1)
      (Proto.Request.make ~client:700 ~ts:0 ~submitted_at:Sim.Time_ns.zero ())
  in
  let good = Proto.Request.make ~client:701 ~ts:0 ~submitted_at:Sim.Time_ns.zero () in
  submit_all c bad;
  submit_all c good;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 30) c.engine;
  let ds = deliveries_at c 0 in
  check_int "only the valid request delivered" 1 (List.length ds);
  match ds with
  | [ d ] -> check_int "it is the good one" 701 d.request.Proto.Request.id.Proto.Request.client
  | _ -> Alcotest.fail "unexpected deliveries"

(* A deployment that requires client signatures refuses a request that
   carries none: a Byzantine leader must not save the 64 B by stripping it. *)
let test_unsigned_rejected () =
  let config = Core.Config.pbft_default ~n:4 in
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  let unsigned =
    Proto.Request.make ~client:702 ~ts:0 ~signed:false ~submitted_at:Sim.Time_ns.zero ()
  in
  let good = Proto.Request.make ~client:703 ~ts:0 ~submitted_at:Sim.Time_ns.zero () in
  submit_all c unsigned;
  submit_all c good;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 30) c.engine;
  match deliveries_at c 0 with
  | [ d ] ->
      check_int "only the signed request delivered" 703
        d.request.Proto.Request.id.Proto.Request.client
  | ds -> Alcotest.failf "expected 1 delivery, got %d" (List.length ds)

let test_out_of_window_rejected () =
  let config = Core.Config.pbft_default ~n:4 in
  let c = build config in
  Array.iter Core.Node.start c.nodes;
  let too_far =
    Proto.Request.make ~client:800
      ~ts:(config.Core.Config.client_watermark_window + 5)
      ~submitted_at:Sim.Time_ns.zero ()
  in
  submit_all c too_far;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 30) c.engine;
  check_int "watermark-violating request not delivered" 0 (List.length (deliveries_at c 0))

(* ------------------------------------------------------------------ *)

let () =
  let e2e name config =
    [
      Alcotest.test_case (name ^ " no-duplication") `Slow (test_no_duplication config);
      Alcotest.test_case (name ^ " total order") `Slow (test_total_order config);
    ]
  in
  Alcotest.run "iss-integration"
    [
      ( "smr-properties",
        e2e "pbft" (Core.Config.pbft_default ~n:4)
        @ e2e "hotstuff" (Core.Config.hotstuff_default ~n:4)
        @ e2e "raft" (Core.Config.raft_default ~n:4) );
      ( "faults",
        [
          Alcotest.test_case "crash leader, keep delivering" `Slow test_crash_leader_progress;
          Alcotest.test_case "epochs advance consecutively" `Slow test_epochs_advance;
          Alcotest.test_case "checkpoints stabilize with quorum sigs" `Slow
            test_checkpoint_stability;
          Alcotest.test_case "state transfer after partition" `Slow
            test_state_transfer_after_partition;
          Alcotest.test_case "straggler tolerated" `Slow test_straggler_impact;
          Alcotest.test_case "log bounded by checkpoint GC" `Slow test_log_bounded_by_gc;
          QCheck_alcotest.to_alcotest prop_agreement_random_crashes;
        ] );
      ( "request-validation",
        [
          Alcotest.test_case "invalid signature rejected" `Quick test_invalid_signature_rejected;
          Alcotest.test_case "unsigned request rejected" `Quick test_unsigned_rejected;
          Alcotest.test_case "out-of-window rejected" `Quick test_out_of_window_rejected;
        ] );
    ]
