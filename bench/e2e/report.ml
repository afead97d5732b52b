(* Metric definitions and the summaries a run's repetitions reduce to.

   End-to-end metrics come from the untraced repetitions; per-layer metrics
   from the traced ones, except for exact counts, which both kinds agree on
   (the parity check) and are read from the untraced run. *)

type metric = { name : string; unit_ : string; value : float }

type end_to_end = {
  e_name : string;
  e_unit : string;
  bound : float;  (** share of the parent's median it may worsen by *)
  host_dependent : bool;  (** else exact for a fixed binary and seed *)
}

(* All lower-is-better.  The bounds are the ones BENCHMARK.json declares
   (test_e2e checks that they agree).  Wall-clock readings on a shared
   2-core host drift by 20% and more over minutes, whatever the run length,
   and ten 20 s runs keep a quartile spread of 8-15%; hence 0.25 on the two
   timings.  The exact fields spread only across seeds, by under 0.4%. *)
let end_to_end =
  [
    { e_name = "setup_s"; e_unit = "s"; bound = 0.25; host_dependent = true };
    { e_name = "wall_per_sim_s"; e_unit = "s/s"; bound = 0.25; host_dependent = true };
    { e_name = "peak_heap_mb"; e_unit = "MB"; bound = 0.10; host_dependent = true };
    { e_name = "alloc_words_per_req"; e_unit = "words/req"; bound = 0.05; host_dependent = false };
    { e_name = "lat_p50_s"; e_unit = "s"; bound = 0.02; host_dependent = false };
    { e_name = "lat_p99_s"; e_unit = "s"; bound = 0.02; host_dependent = false };
  ]

let span_metrics =
  [
    ("runner.cluster.create_s", fun (r : Workloads.rep) -> r.create_s);
    ("core.node.start_s", fun r -> r.start_s);
    ("runner.workload.start_s", fun r -> r.workload_start_s);
    ("sim.engine.run_s", fun r -> r.run_s);
  ]

let phase_names =
  [ "submit_enqueue"; "enqueue_cut"; "cut_sb_broadcast"; "sb_broadcast_commit"; "commit_deliver"; "deliver_reply" ]

(* Per-layer metric names with units, in report order. *)
let per_layer_names =
  List.map (fun (name, _) -> (name, "s")) span_metrics
  @ List.concat_map
      (fun l -> if l = Layers.other then [ (l ^ ".self_s", "s") ] else [ (l ^ ".self_s", "s"); (l ^ ".incl_s", "s") ])
      Layers.all
  @ [
      ("gc.pause_s", "s");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_words_per_req", "words/req");
      ("sim.engine.events", "count");
      ("sim.engine.events_per_s", "1/s");
      ("sim.engine.events_per_req", "events/req");
      ("sim.network.msgs_per_req", "msgs/req");
      ("sim.network.bytes_per_req", "bytes/req");
      ("core.bucket_queue.added_per_req", "count/req");
      ("core.bucket_queue.max_occupancy", "count");
      ("core.node.shed_per_req", "count/req");
      ("core.node.pushback_per_req", "count/req");
      ("runner.cluster.submitted", "count");
      ("runner.cluster.delivered", "count");
    ]
  @ List.concat_map (fun p -> [ ("phase." ^ p ^ ".p50_s", "s"); ("phase." ^ p ^ ".p99_s", "s") ]) phase_names
  @ [ ("trace.overhead_ratio", "ratio"); ("trace.samples", "count") ]

let all_names = List.map (fun e -> e.e_name) end_to_end @ List.map fst per_layer_names

(* Wall-clock readings; every other metric is exact for a fixed binary and
   seed, and the compare mode flags any change to it. *)
let host_dependent name =
  match List.find_opt (fun e -> e.e_name = name) end_to_end with
  | Some e -> e.host_dependent
  | None ->
      (String.ends_with ~suffix:"_s" name && not (String.starts_with ~prefix:"phase." name))
      || List.mem name [ "trace.overhead_ratio"; "trace.samples" ]

let unit_of name =
  match List.find_opt (fun e -> e.e_name = name) end_to_end with
  | Some e -> e.e_unit
  | None -> List.assoc name per_layer_names

let metric name value = { name; unit_ = unit_of name; value }
let fmedian f reps = Stats.median (List.map f reps)
let per_req (r : Workloads.rep) x = float_of_int x /. float_of_int (max 1 r.delivered)

let end_to_end_metrics (w : Workloads.t) ~setup ~(reps : Workloads.rep list) =
  let r = List.hd reps in
  [
    metric "setup_s" (Stats.median setup);
    metric "wall_per_sim_s" (fmedian (fun r -> r.Workloads.run_s) reps /. Workloads.sim_s w);
    metric "peak_heap_mb"
      (fmedian (fun r -> float_of_int (r.Workloads.top_heap_words * (Sys.word_size / 8)) /. 1e6) reps);
    metric "alloc_words_per_req" (r.alloc_words /. float_of_int (max 1 r.delivered));
    metric "lat_p50_s" r.lat_p50_s;
    metric "lat_p99_s" r.lat_p99_s;
  ]

let per_layer_metrics ~(reps : Workloads.rep list) ~(traced : Workloads.rep list) =
  let r = List.hd reps in
  let profiles = List.map (fun (t : Workloads.rep) -> (Option.get t.trace).profile) traced in
  let samples = List.fold_left (fun acc (p : Sampler.profile) -> acc + p.samples) 0 profiles in
  let run_s = fmedian (fun r -> r.Workloads.run_s) traced in
  let share counts i =
    let hits = List.fold_left (fun acc p -> acc + (counts p).(i)) 0 profiles in
    run_s *. float_of_int hits /. float_of_int (max 1 samples)
  in
  let sampled =
    List.concat
      (List.mapi
         (fun i l ->
           let self = metric (l ^ ".self_s") (share (fun p -> p.Sampler.self) i) in
           if l = Layers.other then [ self ]
           else [ self; metric (l ^ ".incl_s") (share (fun p -> p.Sampler.incl) i) ])
         Layers.all)
  in
  let phases = (Option.get (List.hd traced).trace).phases in
  List.map (fun (name, f) -> metric name (fmedian f traced)) span_metrics
  @ sampled
  @ [
      metric "gc.pause_s" (Stats.median (List.map (fun (p : Sampler.profile) -> p.gc_pause_s) profiles));
      metric "gc.minor_collections" (float_of_int r.minor_collections);
      metric "gc.major_collections" (float_of_int r.major_collections);
      metric "gc.promoted_words_per_req" (r.promoted_words /. float_of_int (max 1 r.delivered));
      metric "sim.engine.events" (float_of_int r.events);
      metric "sim.engine.events_per_s" (float_of_int r.events /. fmedian (fun r -> r.Workloads.run_s) reps);
      metric "sim.engine.events_per_req" (per_req r r.events);
      metric "sim.network.msgs_per_req" (per_req r r.msgs);
      metric "sim.network.bytes_per_req" (per_req r r.bytes);
      metric "core.bucket_queue.added_per_req" (per_req r r.bq_added);
      metric "core.bucket_queue.max_occupancy" (float_of_int r.bq_max_occupancy);
      metric "core.node.shed_per_req" (per_req r r.shed);
      metric "core.node.pushback_per_req" (per_req r r.pushback);
      metric "runner.cluster.submitted" (float_of_int r.submitted);
      metric "runner.cluster.delivered" (float_of_int r.delivered);
    ]
  @ List.concat_map
      (fun p ->
        let _, p50, p99 = List.find (fun (name, _, _) -> name = p) phases in
        [ metric ("phase." ^ p ^ ".p50_s") p50; metric ("phase." ^ p ^ ".p99_s") p99 ])
      phase_names
  @ [
      metric "trace.overhead_ratio" (run_s /. fmedian (fun r -> r.Workloads.run_s) reps);
      metric "trace.samples" (float_of_int samples);
    ]

(* The outputs every run of a seed must reproduce exactly, whatever it
   adds to the bare code. *)
let fingerprint (r : Workloads.rep) =
  Printf.sprintf "submitted=%d delivered=%d events=%d msgs=%d bytes=%d lat_p50=%.17g lat_p99=%.17g" r.submitted
    r.delivered r.events r.msgs r.bytes r.lat_p50_s r.lat_p99_s

(* [reps] are the bare repetitions, [others] the profiled and checked runs. *)
let check ~(reps : Workloads.rep list) ~(others : Workloads.rep list) =
  let r = List.hd reps in
  let reference = fingerprint r in
  let differs rep =
    let f = fingerprint rep in
    if f = reference then None else Some (Printf.sprintf "run differs from the first: %s vs %s" f reference)
  in
  (if r.delivered = r.submitted then []
   else [ Printf.sprintf "%d of %d requests undelivered after the drain" (r.submitted - r.delivered) r.submitted ])
  @ List.filter_map differs (List.tl reps @ others)
