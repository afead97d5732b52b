(* A replicated key-value store on top of ISS — the "resilient database"
   use case from the paper's introduction.

   The SMR layer (ISS-Raft here: a CFT database cluster) totally orders
   PUT operations; each replica applies them to a local hash table in
   delivery order.  Because every replica applies the same operations in
   the same order (SMR2/SMR3), the replicas' states stay identical — which
   this example verifies at the end with a state digest.

     dune exec examples/kv_store.exe *)

(* Application payloads ride outside the ISS request (ISS is payload
   oblivious, §3.7); we correlate them by request id. *)
type op = Put of { key : string; value : string }

let () =
  let n = 5 in
  let config = Core.Config.raft_default ~n in
  let engine = Sim.Engine.create () in
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let rng = Sim.Rng.create ~seed:11L in
  let net = Sim.Network.create engine ~rng in
  let placement = Sim.Topology.assign_uniform ~n in

  (* The operation store: request id -> operation (a real deployment ships
     the payload inside the request body; the simulator carries sizes only,
     so the examples keep payloads in this side table). *)
  let ops : (int, op) Hashtbl.t = Hashtbl.create 64 in

  (* One state machine per replica. *)
  let stores = Array.init n (fun _ -> Hashtbl.create 64) in
  let applied = Array.make n 0 in

  let hooks =
    {
      Core.Node.default_hooks with
      on_deliver =
        Some
          (fun node (d : Core.Log.delivery) ->
            let me = Core.Node.id node in
            match Hashtbl.find_opt ops (Proto.Request.id_key d.request.Proto.Request.id) with
            | Some (Put { key; value }) ->
                Hashtbl.replace stores.(me) key value;
                applied.(me) <- applied.(me) + 1;
                if me = 0 then
                  Format.printf "[%a] apply #%d: PUT %s = %s@." Sim.Time_ns.pp
                    (Sim.Engine.now engine) d.request_sn key value
            | None -> ());
    }
  in
  let nodes =
    Array.init n (fun id ->
        Core.Node.create ~config ~id ~clock
          ~send:(fun ~dst msg ->
            Sim.Network.send net ~src:id ~dst ~size:(Proto.Message.wire_size msg) msg)
          ~orderer_factory:Raft.Raft_orderer.factory ~hooks ())
  in
  Array.iteri
    (fun id node ->
      Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node ~datacenter:placement.(id)
        ~handler:(fun ~src ~size:_ msg -> Core.Node.on_message node ~src msg))
    nodes;
  Array.iter Core.Node.start nodes;

  (* Issue writes from two "database clients". *)
  let submit ~client ~ts key value =
    let r =
      Proto.Request.make ~client ~ts ~payload_size:(String.length key + String.length value)
        ~signed:false ~submitted_at:(Sim.Engine.now engine) ()
    in
    Hashtbl.replace ops (Proto.Request.id_key r.id) (Put { key; value });
    Array.iter (fun node -> Core.Node.submit node r) nodes
  in
  let words = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot" |] in
  for k = 0 to 23 do
    ignore
      (Sim.Engine.schedule engine ~delay:(Sim.Time_ns.ms (150 * k)) (fun () ->
           submit ~client:(1000 + (k mod 2)) ~ts:(k / 2)
             (Printf.sprintf "key-%d" (k mod 6))
             (Printf.sprintf "%s-%d" words.(k mod 6) k)))
  done;

  Sim.Engine.run ~until:(Sim.Time_ns.sec 120) engine;

  (* Verify replica convergence: identical state digests everywhere. *)
  let digest store =
    let entries =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) store [] |> List.sort compare
    in
    Iss_crypto.Sha256.digest_hex
      (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) entries))
  in
  let d0 = digest stores.(0) in
  Array.iteri
    (fun i store ->
      Format.printf "replica %d: applied %d ops, state digest %s...@." i applied.(i)
        (String.sub (digest store) 0 16))
    stores;
  let converged = Array.for_all (fun s -> String.equal (digest s) d0) stores in
  Format.printf "@.replicas converged: %b (%d keys)@." converged (Hashtbl.length stores.(0))
