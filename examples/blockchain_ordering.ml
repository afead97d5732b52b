(* A blockchain ordering service à la Hyperledger Fabric, the paper's other
   motivating use case: ISS (with PBFT) orders transactions into batches,
   and each delivered batch becomes a block whose header links the previous
   block's hash — every replica independently builds the identical chain.

     dune exec examples/blockchain_ordering.exe *)

type block = {
  height : int;
  prev : Iss_crypto.Hash.t;
  txs_root : Iss_crypto.Hash.t;  (* Merkle root over the transaction ids *)
  tx_count : int;
}

let block_hash b =
  Iss_crypto.Hash.of_string
    (Printf.sprintf "block:%d:%s:%s:%d" b.height
       (Iss_crypto.Hash.to_hex b.prev)
       (Iss_crypto.Hash.to_hex b.txs_root)
       b.tx_count)

let () =
  let n = 4 in
  let config = Core.Config.pbft_default ~n in
  let engine = Sim.Engine.create () in
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let rng = Sim.Rng.create ~seed:23L in
  let net = Sim.Network.create engine ~rng in
  let placement = Sim.Topology.assign_uniform ~n in

  (* Each replica's chain. *)
  let genesis = Iss_crypto.Hash.of_string "genesis" in
  let chains = Array.init n (fun _ -> ref []) in

  let hooks =
    {
      Core.Node.default_hooks with
      on_batch_deliver =
        (fun node ~sn:_ ~first_request_sn:_ batch ->
          let me = Core.Node.id node in
          let chain = chains.(me) in
          let prev = match !chain with b :: _ -> block_hash b | [] -> genesis in
          let leaves =
            Array.map
              (fun (r : Proto.Request.t) ->
                Iss_crypto.Hash.of_int (Proto.Request.id_key r.id))
              (Proto.Batch.requests batch)
          in
          let b =
            {
              height = List.length !chain;
              prev;
              txs_root = Iss_crypto.Merkle.root leaves;
              tx_count = Proto.Batch.length batch;
            }
          in
          chain := b :: !chain;
          if me = 0 then
            Format.printf "[%a] block %3d  %s...  (%d txs)@." Sim.Time_ns.pp
              (Sim.Engine.now engine) b.height
              (String.sub (Iss_crypto.Hash.to_hex (block_hash b)) 0 16)
              b.tx_count);
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

  (* Transaction traffic from 8 wallets. *)
  for k = 0 to 199 do
    ignore
      (Sim.Engine.schedule engine ~delay:(Sim.Time_ns.ms (25 * k)) (fun () ->
           let r =
             Proto.Request.make ~client:(2000 + (k mod 8)) ~ts:(k / 8)
               ~submitted_at:(Sim.Engine.now engine) ()
           in
           Array.iter (fun node -> Core.Node.submit node r) nodes))
  done;

  Sim.Engine.run ~until:(Sim.Time_ns.sec 30) engine;

  (* All replicas must have built the same chain (prefix-wise). *)
  let tip chain = match !chain with b :: _ -> Some (block_hash b) | [] -> None in
  let heights = Array.map (fun c -> List.length !(c)) chains in
  let min_height = Array.fold_left min max_int heights in
  let prefix chain = List.filteri (fun i _ -> i >= List.length !chain - min_height) !chain in
  let p0 = prefix chains.(0) in
  let all_equal =
    Array.for_all
      (fun c ->
        List.for_all2
          (fun a b -> Iss_crypto.Hash.equal (block_hash a) (block_hash b))
          (prefix c) p0)
      chains
  in
  Array.iteri
    (fun i c ->
      Format.printf "replica %d: height %d, tip %s@." i (List.length !c)
        (match tip c with
        | Some h -> String.sub (Iss_crypto.Hash.to_hex h) 0 16 ^ "..."
        | None -> "(empty)"))
    chains;
  let txs = List.fold_left (fun acc b -> acc + b.tx_count) 0 !(chains.(0)) in
  Format.printf "@.identical chains on the common prefix: %b; %d transactions in chain 0@."
    all_equal txs
