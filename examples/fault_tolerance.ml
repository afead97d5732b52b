(* Fault tolerance demo: a 7-node ISS-PBFT cluster (f = 2) survives a
   crashed leader.  Watch the BLACKLIST policy exclude the dead node from
   the leader set after its segment is filled with ⊥, while ordering
   continues.

     dune exec examples/fault_tolerance.exe *)

let () =
  let n = 7 in
  (* Short epochs so the demo shows several epoch transitions: at light
     load, a leader proposes (possibly empty) batches only every few
     seconds, so the default 256-slot epochs would span minutes. *)
  let config = { (Core.Config.pbft_default ~n) with Core.Config.min_epoch_length = 28 } in
  let engine = Sim.Engine.create () in
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let rng = Sim.Rng.create ~seed:31L in
  let net = Sim.Network.create engine ~rng () in
  let placement = Sim.Topology.assign_uniform ~n in

  let delivered = ref 0 in
  let hooks =
    {
      Core.Node.default_hooks with
      on_batch_deliver =
        (fun node ~sn:_ ~first_request_sn:_ batch ->
          if Core.Node.id node = 0 then delivered := !delivered + Proto.Batch.length batch);
      on_epoch_start =
        (fun node ~epoch ~leaders ~bucket_leaders:_ ->
          if Core.Node.id node = 0 then
            Format.printf "[%a] epoch %d starts; leaders = {%s}%s@." Sim.Time_ns.pp
              (Sim.Engine.now engine) epoch
              (String.concat ", "
                 (Array.to_list (Array.map string_of_int leaders)))
              (if Array.exists (fun l -> l = 2) leaders then "" else "   <- node 2 excluded"));
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
      Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node ~datacenter:placement.(id)
        ~handler:(fun ~src ~size:_ msg -> Core.Node.on_message node ~src msg))
    nodes;
  Array.iter Core.Node.start nodes;

  (* Continuous light load from 16 clients. *)
  for k = 0 to 399 do
    ignore
      (Sim.Engine.schedule engine ~delay:(Sim.Time_ns.ms (100 * k)) (fun () ->
           let r =
             Proto.Request.make ~client:(3000 + (k mod 16)) ~ts:(k / 16)
               ~submitted_at:(Sim.Engine.now engine) ()
           in
           Array.iter
             (fun node -> if not (Core.Node.is_halted node) then Core.Node.submit node r)
             nodes))
  done;

  (* Crash node 2 (a leader) five seconds in. *)
  ignore
    (Sim.Engine.schedule engine ~delay:(Sim.Time_ns.sec 5) (fun () ->
         Format.printf "[%a] *** crashing node 2 ***@." Sim.Time_ns.pp (Sim.Engine.now engine);
         Sim.Network.crash net 2;
         Core.Node.halt nodes.(2)));

  Sim.Engine.run ~until:(Sim.Time_ns.sec 90) engine;

  (* Correct nodes keep agreeing and delivering. *)
  let frontier node = Core.Log.first_undelivered (Core.Node.log node) in
  Format.printf "@.node 0 delivered %d requests; delivery frontiers: %s@." !delivered
    (String.concat ", "
       (List.filter_map
          (fun i ->
            if i = 2 then None
            else Some (Printf.sprintf "n%d:%d" i (frontier nodes.(i))))
          (List.init n (fun i -> i))));
  let nils =
    Core.Log.nil_entries (Core.Node.log nodes.(0)) ~from_sn:0
      ~to_sn:(frontier nodes.(0) - 1)
  in
  Format.printf "⊥ entries in node 0's log (the dead leader's positions): %d@."
    (List.length nils)
