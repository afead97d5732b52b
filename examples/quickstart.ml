(* Quickstart: a 4-node ISS-PBFT cluster ordering client requests.

   This example uses the full client path — real Client processes with
   signed requests, leader detection via Bucket_update messages, reply
   quorums — over the simulated WAN.

     dune exec examples/quickstart.exe *)

let () =
  let n = 4 in
  let config = Core.Config.pbft_default ~n in
  let engine = Sim.Engine.create () in
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let rng = Sim.Rng.create ~seed:7L in
  let net = Sim.Network.create engine ~rng () in
  let placement = Sim.Topology.assign_uniform ~n in

  (* Every process sends through the simulated network; message sizes are
     accounted automatically. *)
  let send_from src ~dst msg =
    Sim.Network.send net ~src ~dst ~size:(Proto.Message.wire_size msg) msg
  in

  (* Replicas: print every delivery at node 0 to show the total order. *)
  let hooks =
    {
      Core.Node.default_hooks with
      on_deliver =
        Some
          (fun node (d : Core.Log.delivery) ->
            let me = Core.Node.id node in
            if me = 0 then
              Format.printf "[%a] node0 delivered request %a as #%d (batch sn %d)@."
                Sim.Time_ns.pp (Sim.Engine.now engine) Proto.Request.pp_id
                d.request.Proto.Request.id d.request_sn d.batch_sn;
            (* Every replica answers the client; the client waits for f+1
               matching replies (§4.3). *)
            send_from me ~dst:d.request.Proto.Request.id.Proto.Request.client
              (Proto.Message.Reply
                 { req_id = d.request.Proto.Request.id; sn = d.request_sn; replier = me }));
      on_epoch_start =
        (fun node ~epoch ~leaders ~bucket_leaders ->
          (* Nodes push the new bucket assignment to clients (§4.3). *)
          if epoch = 0 || true then begin
            ignore leaders;
            for c = n to n + 2 do
              send_from (Core.Node.id node) ~dst:c
                (Proto.Message.Bucket_update { epoch; bucket_leaders })
            done
          end);
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

  (* Three clients spread over the planet. *)
  let completed = ref 0 in
  let clients =
    Array.init 3 (fun i ->
        let id = n + i in
        Core.Client.create ~config ~id ~clock ~send:(send_from id)
          ~on_complete:(fun req ~latency ->
            incr completed;
            Format.printf "[%a] client %d: request %a confirmed in %.0f ms@." Sim.Time_ns.pp
              (Sim.Engine.now engine) id Proto.Request.pp_id req.Proto.Request.id
              (Sim.Time_ns.to_ms_f latency))
          ())
  in
  Array.iteri
    (fun i client ->
      Sim.Network.add_endpoint net ~id:(n + i) ~category:Sim.Network.Client
        ~datacenter:(i * 5 mod 16)
        ~handler:(fun ~src ~size:_ msg -> Core.Client.on_message client ~src msg))
    clients;

  Array.iter Core.Node.start nodes;

  (* Each client submits 5 requests over the first seconds. *)
  Array.iter
    (fun client ->
      for k = 0 to 4 do
        ignore
          (Sim.Engine.schedule engine ~delay:(Sim.Time_ns.ms (300 * k)) (fun () ->
               Core.Client.submit_next client))
      done)
    clients;

  Sim.Engine.run ~until:(Sim.Time_ns.sec 60) engine;
  Format.printf "@.%d requests confirmed by reply quorums; %d events simulated@." !completed
    (Sim.Engine.events_executed engine)
