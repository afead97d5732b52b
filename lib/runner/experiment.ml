module Time_ns = Sim.Time_ns

type result = {
  system : string;
  n : int;
  offered : float;
  duration_s : float;
  submitted : int;
  delivered : int;
  throughput : float;
  mean_latency_s : float;
  p50_latency_s : float;
  p95_latency_s : float;
  p99_latency_s : float;
  series : float array;
  sim_events : int;
  net_messages : int;
  net_bytes : int;
  shed : int;
  pushback : int;
  gave_up : int;
}

let run ?engine ?policy ?tweak ?(faults = []) ?scenario ?tracer ?registry ?shape ?retry_budget
    ?resubmit ~system ~n ~rate ~duration_s ~seed () =
  let cluster = Cluster.create ?engine ?policy ?tweak ?tracer ?registry ~system ~n ~seed () in
  let engine = Cluster.engine cluster in
  let until = Time_ns.of_sec_f duration_s in
  let install sc =
    let protocol =
      match system with Cluster.Iss p | Cluster.Single p -> Some p | Cluster.Mir -> None
    in
    (match Faults.validate ?protocol sc ~n with
    | Ok () -> ()
    | Error e -> invalid_arg (Printf.sprintf "fault scenario %S: %s" (Faults.name sc) e));
    Faults.apply sc cluster
  in
  if faults <> [] then install (Faults.make ~name:"faults" faults);
  Option.iter
    (fun sc ->
      install sc;
      Cluster.enable_invariants cluster)
    scenario;
  Cluster.start cluster;
  (* Fault scenarios need the client resubmission mechanism of §4.3;
     overload runs opt in explicitly so shed requests get re-driven. *)
  let resubmit =
    match resubmit with
    | Some b -> b
    | None -> faults <> [] || Option.is_some scenario
  in
  (* Chaos runs keep the engine (and the resubmission sweeper) going past
     the last fault's heal time plus the recovery bound, so the liveness
     check judges a healed cluster. *)
  let run_until =
    match scenario with
    | None -> until
    | Some sc ->
        let cfg = Cluster.config cluster in
        Time_ns.of_sec_f
          (Float.max duration_s (Faults.heal_s sc +. Faults.liveness_grace_s cfg))
  in
  Workload.start ~cluster ~rate ~resubmit ?shape ?retry_budget
    ~shape_seed:seed ~sweep_until:run_until ~until ();
  Sim.Engine.run ~until:run_until engine;
  (match scenario with None -> () | Some _ -> Cluster.check_liveness cluster);
  let series = Cluster.throughput_series cluster ~until:run_until in
  let warmup_bins = 5 (* one-second bins *) in
  let steady =
    if Array.length series > warmup_bins + 1 then
      Array.sub series warmup_bins (Array.length series - warmup_bins - 1)
    else series
  in
  let throughput =
    if Array.length steady = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 steady /. float_of_int (Array.length steady)
  in
  let hist = Cluster.quorum_latencies cluster in
  {
    system = Cluster.system_name system;
    n;
    offered = rate;
    duration_s;
    submitted = Cluster.submitted cluster;
    delivered = Cluster.delivered_quorum cluster;
    throughput;
    mean_latency_s = Sim.Metrics.Histogram.mean hist;
    p50_latency_s = Sim.Metrics.Histogram.percentile hist 50.0;
    p95_latency_s = Sim.Metrics.Histogram.percentile hist 95.0;
    p99_latency_s = Sim.Metrics.Histogram.percentile hist 99.0;
    series;
    sim_events = Sim.Engine.events_executed engine;
    net_messages = Sim.Network.messages_sent (Cluster.network cluster);
    net_bytes = Sim.Network.bytes_sent (Cluster.network cluster);
    shed = Cluster.shed_total cluster;
    pushback = Cluster.pushback_total cluster;
    gave_up = Cluster.gave_up_count cluster;
  }

(* Analytical ceilings in this simulator (see DESIGN.md): batch-rate caps
   for PBFT/Raft, NIC receive bandwidth for HotStuff, per-leader NIC
   serialization for the single-leader baselines. *)
let saturation_estimate system ~n =
  let request_bits = 4640.0 (* 580 B on the wire *) in
  let nic = 1e9 in
  match system with
  | Cluster.Iss Core.Config.PBFT | Cluster.Mir -> 32.0 *. 2048.0 *. 1.05
  | Cluster.Iss Core.Config.Raft -> 32.0 *. 4096.0 *. 1.05
  | Cluster.Iss Core.Config.HotStuff ->
      (* Receive-side NIC bound, plus CPU on request verification. *)
      min (nic /. request_bits) 190_000.0 *. 1.0
  | Cluster.Single p ->
      let bandwidth_bound = nic /. (request_bits *. float_of_int (max 1 (n - 1))) in
      let rate_bound =
        match p with
        | Core.Config.PBFT -> 32.0 *. 2048.0
        | Core.Config.Raft | Core.Config.HotStuff -> 32.0 *. 4096.0
      in
      min bandwidth_bound rate_bound *. 1.3

let peak_throughput ?engine ?(tweak = fun c -> c) ?tracer ?registry ~system ~n ~duration_s
    ~seed () =
  let rate = saturation_estimate system ~n in
  run ?engine ~tweak ?tracer ?registry ~system ~n ~rate ~duration_s ~seed ()

let pp_result fmt r =
  Format.fprintf fmt
    "%-14s n=%-4d offered=%9.0f req/s  tput=%9.0f req/s  \
     lat(mean/p50/p95/p99)=%6.2f/%6.2f/%6.2f/%6.2f s  delivered=%d/%d"
    r.system r.n r.offered r.throughput r.mean_latency_s r.p50_latency_s r.p95_latency_s
    r.p99_latency_s r.delivered r.submitted;
  if r.shed > 0 || r.gave_up > 0 || r.pushback > 0 then
    Format.fprintf fmt "  shed=%d pushback=%d gave_up=%d" r.shed r.pushback r.gave_up

let result_to_json ?(series = false) r =
  let open Obs.Jsonx in
  let base =
    [
      ("system", String r.system);
      ("n", Int r.n);
      ("offered_req_s", Float r.offered);
      ("duration_s", Float r.duration_s);
      ("submitted", Int r.submitted);
      ("delivered", Int r.delivered);
      ("throughput_req_s", Float r.throughput);
      ("mean_latency_s", Float r.mean_latency_s);
      ("p50_latency_s", Float r.p50_latency_s);
      ("p95_latency_s", Float r.p95_latency_s);
      ("p99_latency_s", Float r.p99_latency_s);
      ("sim_events", Int r.sim_events);
      ("net_messages", Int r.net_messages);
      ("net_bytes", Int r.net_bytes);
      ("shed", Int r.shed);
      ("pushback", Int r.pushback);
      ("gave_up", Int r.gave_up);
    ]
  in
  let extra =
    if series then
      [ ("series_req_s", List (Array.to_list (Array.map (fun v -> Float v) r.series))) ]
    else []
  in
  Obj (base @ extra)

(* Offered-load sweep across the saturation knee (EXPERIMENTS.md "Overload
   sweep").  The swept system is a deliberately throttled 4-node ISS-PBFT —
   batch rate 32/s × 64-request batches puts the analytical ceiling at
   2048 req/s, low enough that a 7-point sweep finishes in seconds — with
   bounded admission, so past the knee the nodes shed instead of queueing
   without bound. *)

type sweep_point = {
  fraction : float;  (** offered load as a multiple of the analytical ceiling *)
  point : result;
  goodput : float;  (** delivered req/s over the steady-state window *)
}

type sweep = {
  ceiling : float;  (** analytical saturation estimate, req/s *)
  sweep_points : sweep_point list;  (** in increasing offered-load order *)
  peak_goodput : float;
  knee_fraction : float;
      (** highest swept fraction whose goodput stays within 5% of the peak *)
}

let overload_tweak () c =
  {
    c with
    Core.Config.max_batch_size = 64;
    batch_rate = Some 32.0;
    min_epoch_length = 64;
    admission = Core.Config.Bounded { capacity = 64; shed = Core.Config.Reject_new };
  }

let overload_ceiling = 32.0 *. 64.0

let overload_sweep () =
  let points =
    List.map
      (fun fraction ->
        let r =
          run
            ~tweak:(overload_tweak ())
            ~resubmit:true ~retry_budget:3 ~system:(Cluster.Iss Core.Config.PBFT) ~n:4
            ~rate:(fraction *. overload_ceiling)
            ~duration_s:25.0 ~seed:42L ()
        in
        { fraction; point = r; goodput = r.throughput })
      [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 2.0 ]
  in
  let peak_goodput = List.fold_left (fun m p -> Float.max m p.goodput) 0.0 points in
  (* The knee: the highest swept load the system still keeps up with
     (goodput within 5% of offered).  Past it goodput should stay flat near
     the peak — graceful degradation — rather than collapse. *)
  let knee_fraction =
    List.fold_left
      (fun knee p ->
        if p.goodput >= 0.95 *. p.point.offered then Float.max knee p.fraction else knee)
      0.0 points
  in
  { ceiling = overload_ceiling; sweep_points = points; peak_goodput; knee_fraction }

let sweep_to_json sw =
  let open Obs.Jsonx in
  Obj
    [
      ("figure", String "overload");
      ("system", String "iss-pbft");
      ("ceiling_req_s", Float sw.ceiling);
      ("peak_goodput_req_s", Float sw.peak_goodput);
      ("knee_fraction", Float sw.knee_fraction);
      ( "points",
        List
          (List.map
             (fun p ->
               match result_to_json p.point with
               | Obj fields -> Obj (("fraction", Float p.fraction) :: fields)
               | other -> other)
             sw.sweep_points) );
    ]
