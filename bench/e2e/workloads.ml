(* The benchmark's workloads and one measured run of a workload.

   Every workload is open loop: 2048 modeled clients submit on a 10 ms
   virtual tick whatever happens to earlier requests, and latency counts
   from the scheduled send time.  A run offers load for [offered_s]
   simulated seconds and then drains for [drain_s], long enough that every
   request reaches its reply quorum; an undelivered request is an error, not
   a statistic.  Wall time grows faster than simulated time, so the run
   lengths are part of each workload's definition. *)

module Time_ns = Sim.Time_ns

type t = {
  name : string;
  why : string;
  protocol : Core.Config.protocol;
  n : int;
  rate : float;  (** offered req/s *)
  offered_s : float;
  drain_s : float;
  crash : int option;  (** node crashed at t = 0 *)
  resubmit : bool;  (** the workload's §4.3 client resubmission *)
  tweak : Core.Config.t -> Core.Config.t;
}

let steady =
  {
    name = "pbft32-steady";
    why = "ISS-PBFT n=32 at the 16.4 kreq/s operating point: request-heavy, node intake and validation dominate";
    protocol = Core.Config.PBFT;
    n = 32;
    rate = 16_400.0;
    offered_s = 3.0;
    drain_s = 5.0;
    crash = None;
    resubmit = false;
    tweak = Fun.id;
  }

let lowload ~n =
  {
    name = Printf.sprintf "pbft%d-lowload" n;
    why =
      Printf.sprintf
        "ISS-PBFT n=%d at 2 kreq/s: O(n^2) protocol traffic with idle per-request layers, the control for intake changes"
        n;
    protocol = Core.Config.PBFT;
    n;
    rate = 2_000.0;
    offered_s = 2.0;
    drain_s = 5.0;
    crash = None;
    resubmit = false;
    tweak = Fun.id;
  }

let crash =
  {
    name = "hotstuff32-crash";
    why = "ISS-HotStuff n=32 at 8 kreq/s with node 1 crashed at t=0: stalled segments, epoch-change timeout, resubmission";
    protocol = Core.Config.HotStuff;
    n = 32;
    rate = 8_000.0;
    offered_s = 4.0;
    drain_s = 14.0;
    crash = Some 1;
    resubmit = true;
    tweak = Fun.id;
  }

let overload =
  {
    name = "pbft4-overload";
    why = "throttled ISS-PBFT n=4 offered 2x its 2048 req/s ceiling: shedding and client retries instead of fresh accepts";
    protocol = Core.Config.PBFT;
    n = 4;
    rate = 2.0 *. Runner.Experiment.overload_ceiling;
    offered_s = 20.0;
    drain_s = 45.0;
    crash = None;
    resubmit = true;
    tweak = Runner.Experiment.overload_tweak ();
  }

(* pbft128-lowload is the paper's scale but costs ~20 s and ~1.2 GB per
   run whatever the load (epoch 0 alone is O(n^3) messages), too much for
   the repeated runs of BENCHMARK.json; pbft64-lowload stands in for it
   there. *)
let all = [ steady; lowload ~n:64; crash; overload; lowload ~n:128 ]
let find name = List.find_opt (fun w -> w.name = name) all
let sim_s w = w.offered_s +. w.drain_s

type trace = {
  profile : Sampler.profile;
  phases : (string * float * float) list;  (** transition, p50 s, p99 s *)
}

type rep = {
  create_s : float;
  start_s : float;
  workload_start_s : float;
  run_s : float;  (** wall time of [Sim.Engine.run] *)
  submitted : int;
  delivered : int;
  events : int;
  msgs : int;
  bytes : int;
  lat_count : int;
  lat_p50_s : float;
  lat_p99_s : float;
  alloc_words : float;  (** minor + major - promoted, workload start to end *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
  bq_added : int;
  bq_max_occupancy : int;
  shed : int;
  pushback : int;
  trace : trace option;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let create ?tracer w ~engine ~seed =
  Runner.Cluster.create ~engine ?tracer ~tweak:w.tweak ~system:(Runner.Cluster.Iss w.protocol) ~n:w.n
    ~seed ()

(* Wall seconds of fresh [Cluster.create] + [Cluster.start]: at least five,
   and for at least 0.2 s so that millisecond set-ups still give a steady
   median. *)
let setup_samples w ~seed =
  let rec go acc count elapsed =
    if count >= 5 && elapsed >= 0.2 then List.rev acc
    else
      let (), dt =
        timed (fun () -> Runner.Cluster.start (create w ~engine:(Sim.Engine.create ()) ~seed))
      in
      go (dt :: acc) (count + 1) (elapsed +. dt)
  in
  go [] 0 0.0

let sum_nodes cluster f = Array.fold_left (fun acc node -> acc + f node) 0 (Runner.Cluster.nodes cluster)
let max_nodes cluster f = Array.fold_left (fun acc node -> max acc (f node)) 0 (Runner.Cluster.nodes cluster)

(* What a run adds to the bare benchmarked code; neither changes the
   simulation.  [Profiled]: the sampler and a lifecycle tracer sampling 1
   request in 16.  [Checked]: the online safety and exactly-once invariants
   plus the end-of-run liveness check.  The checker gets a run of its own
   because it costs up to 70% extra wall time, all of it in runner.cluster,
   which would swamp the profile. *)
type mode = Bare | Profiled | Checked

(* [Experiment.run]'s body plus a drain. *)
let run ?(mode = Bare) w ~seed =
  let engine = Sim.Engine.create () in
  let tracer =
    if mode = Profiled then Some (Obs.Tracer.create ~sample:16 ~max_events:(1 lsl 22) ~engine ())
    else None
  in
  let cluster, create_s = timed (fun () -> create ?tracer w ~engine ~seed) in
  if mode = Checked then Runner.Cluster.enable_invariants cluster;
  Option.iter (fun node -> Runner.Cluster.crash_at cluster ~node ~at:Time_ns.zero) w.crash;
  let (), start_s = timed (fun () -> Runner.Cluster.start cluster) in
  let until = Time_ns.of_sec_f w.offered_s and fin = Time_ns.of_sec_f (sim_s w) in
  let gc0 = Gc.quick_stat () and minor0, promoted0, major0 = Gc.counters () in
  let (), workload_start_s =
    timed (fun () ->
        Runner.Workload.start ~cluster ~rate:w.rate ~resubmit:w.resubmit ~shape_seed:seed
          ~sweep_until:fin ~until ())
  in
  let sampler = if mode = Profiled then Some (Sampler.start ()) else None in
  let (), run_s = timed (fun () -> Sim.Engine.run ~until:fin engine) in
  let profile = Option.map Sampler.stop sampler in
  let minor1, promoted1, major1 = Gc.counters () and gc1 = Gc.quick_stat () in
  if mode = Checked then Runner.Cluster.check_liveness cluster;
  let lat = Runner.Cluster.quorum_latencies cluster in
  let net = Runner.Cluster.network cluster in
  {
    create_s;
    start_s;
    workload_start_s;
    run_s;
    submitted = Runner.Cluster.submitted cluster;
    delivered = Runner.Cluster.delivered_quorum cluster;
    events = Sim.Engine.events_executed engine;
    msgs = Sim.Network.messages_sent net;
    bytes = Sim.Network.bytes_sent net;
    lat_count = Sim.Metrics.Histogram.count lat;
    lat_p50_s = Sim.Metrics.Histogram.percentile lat 50.0;
    lat_p99_s = Sim.Metrics.Histogram.percentile lat 99.0;
    alloc_words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
    promoted_words = promoted1 -. promoted0;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    top_heap_words = gc1.Gc.top_heap_words;
    bq_added = sum_nodes cluster Core.Node.bucket_queue_added;
    bq_max_occupancy = max_nodes cluster Core.Node.bucket_queue_max_occupancy;
    shed = Runner.Cluster.shed_total cluster;
    pushback = Runner.Cluster.pushback_total cluster;
    trace =
      Option.map
        (fun profile ->
          let phases =
            List.map
              (fun (label, hist) ->
                ( String.concat "_" (List.filter (( <> ) "->") (String.split_on_char ' ' label)),
                  Sim.Metrics.Histogram.percentile hist 50.0,
                  Sim.Metrics.Histogram.percentile hist 99.0 ))
              (Obs.Tracer.breakdown (Option.get tracer))
          in
          { profile; phases })
        profile;
  }
