(* End-to-end smoke test: a 4-node ISS-PBFT cluster over the simulated WAN
   orders requests submitted by modeled clients. *)

let factory_for (config : Core.Config.t) =
  match config.Core.Config.protocol with
  | Core.Config.PBFT -> Pbft.Pbft_orderer.factory
  | Core.Config.HotStuff -> Hotstuff.Hotstuff_orderer.factory
  | Core.Config.Raft -> Raft.Raft_orderer.factory

let build_cluster ~config ~seed =
  let engine = Sim.Engine.create () in
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let rng = Sim.Rng.create ~seed in
  let net = Sim.Network.create engine ~rng in
  let n = config.Core.Config.n in
  let placement = Sim.Topology.assign_uniform ~n in
  let delivered = ref [] in
  let hooks =
    {
      Core.Node.default_hooks with
      on_deliver =
        Some
          (fun node d -> if Core.Node.id node = 0 then delivered := d :: !delivered);
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
  (engine, net, nodes, delivered)

let test_orders_requests config () =
  let engine, _net, nodes, delivered = build_cluster ~config ~seed:42L in
  Array.iter Core.Node.start nodes;
  (* Submit 100 requests from 10 clients directly to every node (modeled
     client broadcast). *)
  for c = 0 to 9 do
    for ts = 0 to 9 do
      ignore
        (Sim.Engine.schedule engine ~delay:(Sim.Time_ns.ms (10 * ts)) (fun () ->
             let r =
               Proto.Request.make ~client:(1000 + c) ~ts
                 ~submitted_at:(Sim.Engine.now engine) ()
             in
             Array.iter (fun node -> Core.Node.submit node r) nodes))
    done
  done;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 120) engine;
  let count = List.length !delivered in
  Alcotest.(check int) "all 100 requests delivered at node 0" 100 count;
  (* No duplicates: all delivered ids distinct. *)
  let ids =
    List.map (fun (d : Core.Log.delivery) -> Proto.Request.id_key d.request.Proto.Request.id)
      !delivered
  in
  Alcotest.(check int) "no duplicate deliveries" 100 (List.length (List.sort_uniq compare ids))

let test_agreement_across_nodes () =
  let config = Core.Config.pbft_default ~n:4 in
  let engine, _net, nodes, _ = build_cluster ~config ~seed:7L in
  Array.iter Core.Node.start nodes;
  for c = 0 to 4 do
    for ts = 0 to 19 do
      ignore
        (Sim.Engine.schedule engine ~delay:(Sim.Time_ns.ms (5 * ts)) (fun () ->
             let r =
               Proto.Request.make ~client:(2000 + c) ~ts
                 ~submitted_at:(Sim.Engine.now engine) ()
             in
             Array.iter (fun node -> Core.Node.submit node r) nodes))
    done
  done;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 60) engine;
  (* Compare the common committed prefix across nodes (SMR2 agreement). *)
  let log0 = Core.Node.log nodes.(0) in
  let upto = Core.Log.first_undelivered log0 in
  Alcotest.(check bool) "node 0 made progress" true (upto > 0);
  Array.iter
    (fun node ->
      let log = Core.Node.log node in
      for sn = 0 to min upto (Core.Log.first_undelivered log) - 1 do
        let d p = Iss_crypto.Hash.to_hex (Proto.Proposal.digest p) in
        match (Core.Log.get log0 ~sn, Core.Log.get log ~sn) with
        | Some a, Some b -> Alcotest.(check string) (Printf.sprintf "sn %d" sn) (d a) (d b)
        | _ -> Alcotest.fail "missing entry in common prefix"
      done)
    nodes

let () =
  Alcotest.run "smoke"
    [
      ( "iss-pbft",
        [
          Alcotest.test_case "orders requests end-to-end" `Quick
            (test_orders_requests (Core.Config.pbft_default ~n:4));
          Alcotest.test_case "agreement across nodes" `Quick test_agreement_across_nodes;
        ] );
      ( "iss-hotstuff",
        [
          Alcotest.test_case "orders requests end-to-end" `Quick
            (test_orders_requests (Core.Config.hotstuff_default ~n:4));
        ] );
      ( "iss-raft",
        [
          Alcotest.test_case "orders requests end-to-end" `Quick
            (test_orders_requests (Core.Config.raft_default ~n:4));
        ] );
    ]
