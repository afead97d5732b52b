module Time_ns = Sim.Time_ns
module Engine = Sim.Engine

type system =
  | Iss of Core.Config.protocol
  | Single of Core.Config.protocol
  | Mir

let system_name = function
  | Iss p -> "ISS-" ^ Core.Config.protocol_name p
  | Single p -> Core.Config.protocol_name p
  | Mir -> "Mir-BFT"

type quorum_state = { mutable count : int; mutable reached : bool }

exception Invariant_violation of string

type t = {
  engine : Engine.t;
  net : Proto.Message.t Sim.Network.t;
  mutable nodes : Core.Node.t array;
  config : Core.Config.t;
  system : system;
  n : int;
  placement : int array;
  latencies : Sim.Metrics.Histogram.t;
  throughput : Sim.Metrics.Series.t;
  quorums : (int, quorum_state) Hashtbl.t;  (* batch_sn -> deliveries *)
  mutable delivered_quorum : int;
  mutable submitted : int;
  mutable track_delivered_ids : bool;
  delivered_ids : (int, unit) Hashtbl.t;  (* request id keys, when tracked *)
  mutable checker : Checker.t option;  (* None unless [enable_invariants] *)
  mutable adversary : Adversary.t option;
      (* None unless a Byzantine fault schedule configured one: the honest
         send path must stay byte-identical to a build without the adversary
         layer (fingerprint-checked by the conformance harness). *)
  byzantine : bool array;
      (* nodes marked Byzantine by a schedule: excluded from the checked
         invariants and from reply-quorum counting (the invariants quantify
         over correct nodes only) *)
  tracer : Obs.Tracer.t option;
  mutable gave_up : int;
      (* requests whose client (modeled or real) exhausted its retry budget *)
  gave_up_ids : (int, unit) Hashtbl.t;
      (* id keys of given-up requests: the workload's watermark gate treats
         "explicitly gave up" as a terminal state alongside "delivered" *)
}

let engine t = t.engine
let network t = t.net
let nodes t = t.nodes
let config t = t.config
let quorum_latencies t = t.latencies
let delivered_quorum t = t.delivered_quorum
let submitted t = t.submitted
let reply_quorum t = Core.Config.reply_quorum t.config
let tracer t = t.tracer
let checker t = t.checker

let adversary t = t.adversary

let ensure_adversary t =
  match t.adversary with
  | Some adv -> adv
  | None ->
      let adv = Adversary.create ~n:t.n ~config:t.config in
      t.adversary <- Some adv;
      adv

let mark_byzantine t node =
  t.byzantine.(node) <- true;
  match t.checker with Some ck -> Checker.set_byzantine ck node | None -> ()

let gave_up_count t = t.gave_up

let shed_total t =
  Array.fold_left (fun acc node -> acc + Core.Node.shed_count node) 0 t.nodes

let pushback_total t =
  Array.fold_left (fun acc node -> acc + Core.Node.pushback_count node) 0 t.nodes

let note_gave_up t (r : Proto.Request.t) =
  let key = Proto.Request.id_key r.Proto.Request.id in
  if not (Hashtbl.mem t.gave_up_ids key) then begin
    t.gave_up <- t.gave_up + 1;
    Hashtbl.replace t.gave_up_ids key ();
    match t.checker with Some ck -> Checker.note_gave_up ck r | None -> ()
  end

let note_submitted t (req : Proto.Request.t) =
  t.submitted <- t.submitted + 1;
  match t.checker with Some ck -> Checker.note_submitted ck req | None -> ()

(* A violation the checker recorded aborts the run at the event that caused
   it, with the simulated time. *)
let violation t msg =
  Invariant_violation
    (Printf.sprintf "invariant violation at t=%.3fs: %s"
       (Time_ns.to_sec_f (Engine.now t.engine))
       msg)

let abort_on_violation t ck =
  match Checker.violation ck with Some msg -> raise (violation t msg) | None -> ()

let throughput_series t ~until = Sim.Metrics.Series.rate_per_sec t.throughput ~until

let n_datacenters = Array.length Sim.Topology.datacenters

let client_datacenter _t ~client = client mod n_datacenters

let reply_wire_size = 32

let config_of_system ?policy ?(tweak = Fun.id) ~system ~n () =
  let base =
    match system with
    | Iss p -> Core.Config.default_for p ~n
    | Single p ->
        { (Core.Config.default_for p ~n) with Core.Config.leader_policy = Core.Config.Fixed [ 0 ] }
    | Mir -> Core.Config.pbft_default ~n
  in
  let base =
    match (system, policy) with
    | Iss _, Some p -> { base with Core.Config.leader_policy = p }
    | _ -> base
  in
  tweak base

let factory_for (config : Core.Config.t) =
  match config.Core.Config.protocol with
  | Core.Config.PBFT -> Pbft.Pbft_orderer.factory
  | Core.Config.HotStuff -> Hotstuff.Hotstuff_orderer.factory
  | Core.Config.Raft -> Raft.Raft_orderer.factory

(* Per-node gauges and counters the observability layer samples at snapshot
   time.  Everything here is a read of state the cluster maintains anyway —
   registration costs nothing on the simulation hot path. *)
let register_metrics reg t =
  Obs.Registry.counter reg ~name:"net.messages_sent" (fun () -> Sim.Network.messages_sent t.net);
  Obs.Registry.counter reg ~name:"net.bytes_sent" (fun () -> Sim.Network.bytes_sent t.net);
  Obs.Registry.counter reg ~name:"engine.events_executed" (fun () ->
      Engine.events_executed t.engine);
  Obs.Registry.counter reg ~name:"cluster.submitted" (fun () -> t.submitted);
  Obs.Registry.counter reg ~name:"cluster.delivered_quorum" (fun () -> t.delivered_quorum);
  Obs.Registry.counter reg ~name:"cluster.gave_up" (fun () -> t.gave_up);
  Obs.Registry.histogram reg ~name:"cluster.latency_s" t.latencies;
  Array.iteri
    (fun id node ->
      Obs.Registry.gauge reg ~node:id ~name:"node.epoch" (fun () ->
          float_of_int (Core.Node.current_epoch node));
      Obs.Registry.gauge reg ~node:id ~name:"node.bucket_queue.occupancy" (fun () ->
          float_of_int (Core.Node.pending_requests node));
      Obs.Registry.counter reg ~node:id ~name:"node.bucket_queue.added" (fun () ->
          Core.Node.bucket_queue_added node);
      Obs.Registry.gauge reg ~node:id ~name:"node.bucket_queue.max_occupancy" (fun () ->
          float_of_int (Core.Node.bucket_queue_max_occupancy node));
      Obs.Registry.gauge reg ~node:id ~name:"node.commit_queue.depth" (fun () ->
          float_of_int (Core.Log.committed_ahead (Core.Node.log node)));
      Obs.Registry.gauge reg ~node:id ~name:"node.orderer.instances" (fun () ->
          float_of_int (Core.Node.active_instances node));
      Obs.Registry.gauge reg ~node:id ~name:"node.checkpoint.lag_epochs" (fun () ->
          float_of_int (Core.Node.checkpoint_lag node));
      Obs.Registry.counter reg ~node:id ~name:"node.delivered" (fun () ->
          Core.Node.delivered_count node);
      Obs.Registry.counter reg ~node:id ~name:"node.auth_failures" (fun () ->
          Core.Node.auth_failures node);
      Obs.Registry.counter reg ~node:id ~name:"node.flow.shed" (fun () ->
          Core.Node.shed_count node);
      Obs.Registry.counter reg ~node:id ~name:"node.flow.pushback" (fun () ->
          Core.Node.pushback_count node);
      Obs.Registry.gauge reg ~node:id ~name:"node.nic.tx_backlog_s" (fun () ->
          Time_ns.to_sec_f
            (Sim.Network.nic_backlog t.net ~endpoint:id ~dir:`Tx ~peer:Sim.Network.Node));
      Obs.Registry.gauge reg ~node:id ~name:"node.nic.rx_backlog_s" (fun () ->
          Time_ns.to_sec_f
            (Sim.Network.nic_backlog t.net ~endpoint:id ~dir:`Rx ~peer:Sim.Network.Node));
      Obs.Registry.gauge reg ~node:id ~name:"node.nic.client_tx_backlog_s" (fun () ->
          Time_ns.to_sec_f
            (Sim.Network.nic_backlog t.net ~endpoint:id ~dir:`Tx ~peer:Sim.Network.Client)))
    t.nodes

let create ?engine ?policy ?tweak ?tracer ?registry ~system ~n ~seed () =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let net = Sim.Network.create engine ~rng:(Sim.Rng.split rng) in
  let config = config_of_system ?policy ?tweak ~system ~n () in
  let placement = Sim.Topology.assign_uniform ~n in
  (* One clock for every node, its orderers and the Mir gates. *)
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let t =
    {
      engine;
      net;
      nodes = [||];
      config;
      system;
      n;
      placement;
      latencies = Sim.Metrics.Histogram.create ();
      throughput = Sim.Metrics.Series.create ~bin:(Time_ns.sec 1);
      quorums = Hashtbl.create 4096;
      delivered_quorum = 0;
      submitted = 0;
      track_delivered_ids = false;
      delivered_ids = Hashtbl.create 4096;
      checker = None;
      adversary = None;
      byzantine = Array.make n false;
      tracer;
      gave_up = 0;
      gave_up_ids = Hashtbl.create 256;
    }
  in
  (* Measurement hook: when the [reply_quorum]-th node's delivery frontier
     passes a batch, every request in it is answered — record latency
     (including the reply's propagation back to the client) and
     throughput. *)
  let on_batch_deliver node ~sn ~first_request_sn batch =
    let node_id = Core.Node.id node in
    (match t.checker with
    | None -> ()
    | Some ck ->
        Checker.note_delivery ck ~node:node_id ~sn ~first_request_sn batch;
        abort_on_violation t ck);
    (* Each delivering node sends one reply per request on its public NIC;
       charge that bandwidth in one aggregate operation. *)
    ignore
      (Sim.Network.charge t.net ~endpoint:node_id ~dir:`Tx ~peer:Sim.Network.Client
         ~bytes:(Proto.Batch.length batch * (reply_wire_size + 80)));
    let q =
      match Hashtbl.find_opt t.quorums sn with
      | Some q -> q
      | None ->
          let q = { count = 0; reached = false } in
          Hashtbl.replace t.quorums sn q;
          q
    in
    (* A Byzantine node's reply must not count towards the f+1 reply quorum:
       clients cannot trust it, and the liveness invariant demands a quorum
       of correct replies. *)
    if not t.byzantine.(node_id) then q.count <- q.count + 1;
    if (not q.reached) && q.count >= reply_quorum t then begin
      q.reached <- true;
      let now = Engine.now t.engine in
      let node_dc = t.placement.(node_id) in
      let len = Proto.Batch.length batch in
      t.delivered_quorum <- t.delivered_quorum + len;
      Sim.Metrics.Series.add t.throughput ~at:now (float_of_int len);
      Proto.Batch.iter
        (fun (r : Proto.Request.t) ->
          if t.track_delivered_ids then
            Hashtbl.replace t.delivered_ids (Proto.Request.id_key r.id) ();
          let client_dc = client_datacenter t ~client:r.id.Proto.Request.client in
          let reply_prop = Sim.Topology.latency node_dc client_dc in
          (* Reply = the quorum's reply reaching the client: the simulated
             moment the request's end-to-end latency ends. *)
          (match t.tracer with
          | None -> ()
          | Some tr ->
              Obs.Tracer.record tr
                ~req:(Proto.Request.id_key r.id)
                ~node:node_id
                ~at:(Time_ns.add now reply_prop)
                Obs.Tracer.Reply);
          let latency =
            Time_ns.to_sec_f (Time_ns.diff (Time_ns.add now reply_prop) r.submitted_at)
          in
          Sim.Metrics.Histogram.add t.latencies latency)
        batch
    end
  in
  let mir_gates =
    match system with
    | Mir ->
        Some
          (Array.init n (fun id ->
               Mirbft.create ~clock ~n ~id
                 ~send:(fun ~dst msg ->
                   Sim.Network.send net ~src:id ~dst ~size:(Proto.Message.wire_size msg) msg)
                 ~timeout:config.Core.Config.epoch_change_timeout))
    | Iss _ | Single _ -> None
  in
  (* Flow-control pushback.  Modeled clients have no network endpoint and
     hear of no pushback: the hook reports an actual shed to the checker
     and ignores [retry_after].  When flow control is off the node never
     fires it, keeping the honest path untouched. *)
  let on_pushback node (r : Proto.Request.t) ~retry_after:_ ~shed =
    match t.checker with
    | Some ck when shed ->
        Checker.note_shed ck ~node:(Core.Node.id node) r;
        abort_on_violation t ck
    | Some _ | None -> ()
  in
  let hooks =
    {
      Core.Node.default_hooks with
      on_batch_deliver;
      on_pushback = Some on_pushback;
      epoch_gate =
        (match mir_gates with
        | Some gates -> Some (fun node ~epoch k -> Mirbft.epoch_gate gates.(Core.Node.id node) ~epoch k)
        | None -> None);
    }
  in
  let nodes =
    Array.init n (fun id ->
        Core.Node.create ~config ~id ~clock
          ~send:(fun ~dst msg ->
            (* Byzantine adversary proxy: one mutable-field check on the
               honest path.  When a schedule configured an adversary, the
               node's outgoing traffic is routed through it — the node
               itself keeps running honest code; only the wire lies. *)
            match t.adversary with
            | None -> Sim.Network.send net ~src:id ~dst ~size:(Proto.Message.wire_size msg) msg
            | Some adv ->
                List.iter
                  (fun (dst, msg) ->
                    Sim.Network.send net ~src:id ~dst ~size:(Proto.Message.wire_size msg) msg)
                  (Adversary.route adv ~src:id ~dst msg))
          ~orderer_factory:(factory_for config) ~hooks ?tracer ())
  in
  t.nodes <- nodes;
  (match registry with None -> () | Some reg -> register_metrics reg t);
  Array.iteri
    (fun id node ->
      Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node ~datacenter:placement.(id)
        ~handler:(fun ~src ~size:_ msg ->
          let consumed =
            match mir_gates with
            | Some gates -> Mirbft.on_message gates.(id) ~src msg
            | None -> false
          in
          if not consumed then Core.Node.on_message node ~src msg))
    nodes;
  t

let start t = Array.iter Core.Node.start t.nodes

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let crash_at t ~node ~at =
  Engine.post_at t.engine ~at (fun () ->
      Sim.Network.crash t.net node;
      Core.Node.halt t.nodes.(node))

let recover_at t ~node ~at =
  Engine.post_at t.engine ~at (fun () ->
      Sim.Network.recover t.net node;
      Core.Node.recover t.nodes.(node))

let enable_delivery_tracking t = t.track_delivered_ids <- true

let request_delivered t (r : Proto.Request.t) =
  Hashtbl.mem t.delivered_ids (Proto.Request.id_key r.id)

let request_terminal t ~client ~ts =
  let key = Proto.Request.id_key { Proto.Request.client; ts } in
  Hashtbl.mem t.delivered_ids key || Hashtbl.mem t.gave_up_ids key

(* ------------------------------------------------------------------ *)
(* Invariant checking *)

let enable_invariants t =
  if t.checker = None then begin
    let ck =
      Checker.create ~n:t.n ~reply_quorum:(reply_quorum t)
        ~window:Core.Config.client_watermark_window
    in
    Array.iteri (fun node byz -> if byz then Checker.set_byzantine ck node) t.byzantine;
    t.checker <- Some ck
  end

let check_liveness t =
  match t.checker with
  | None -> invalid_arg "Cluster.check_liveness: call enable_invariants first"
  | Some ck -> (
      match Checker.finalize ck with Ok _ -> () | Error msg -> raise (violation t msg))
