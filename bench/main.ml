(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6).  `dune exec bench/main.exe` runs everything;
   `dune exec bench/main.exe -- fig5 fig7` runs a subset.

   Durations are scaled-down (simulated seconds) relative to the paper's
   wall-clock experiments so the whole suite completes in tens of minutes on
   one core; set ISS_BENCH_SCALE (e.g. 2.0) to lengthen runs.  Shapes, not
   absolute testbed numbers, are the reproduction target — see
   EXPERIMENTS.md. *)

module E = Runner.Experiment
module C = Runner.Cluster
module F = Runner.Faults

let scale =
  match Sys.getenv_opt "ISS_BENCH_SCALE" with
  | Some s -> ( try float_of_string s with _ -> 1.0)
  | None -> 1.0

let dur s = s *. scale

let seed = 42L

let header title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let print_result r = Format.printf "%a@." E.pp_result r

(* --json DIR: each figure additionally writes DIR/BENCH_<figure>.json with
   one row per measurement run, so plots are reproducible without scraping
   the text output.  Rows accumulate here while a figure runs; the driver
   loop flushes them per figure. *)
let json_dir : string option ref = ref None
let json_rows : Obs.Jsonx.t list ref = ref []

(* A result row, optionally tagged with figure-specific context (fault name,
   policy, straggler count, ...). *)
let emit ?(extra = []) ?series r =
  if !json_dir <> None then
    let row =
      match E.result_to_json ?series r with
      | Obs.Jsonx.Obj fields -> Obs.Jsonx.Obj (fields @ extra)
      | j -> j
    in
    json_rows := row :: !json_rows

let flush_figure_json name =
  match (!json_dir, List.rev !json_rows) with
  | None, _ | _, [] -> json_rows := []
  | Some dir, rows ->
      json_rows := [];
      let file = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
      let json =
        Obs.Jsonx.Obj [ ("figure", Obs.Jsonx.String name); ("rows", Obs.Jsonx.List rows) ]
      in
      let oc = open_out file in
      output_string oc (Obs.Jsonx.to_string json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "[wrote %s]\n%!" file

let print_series label (series : float array) =
  Printf.printf "%s\n" label;
  Array.iteri (fun i v -> Printf.printf "  t=%4ds  %10.0f req/s\n" i v) series;
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: ISS configuration parameters used in the evaluation";
  List.iter
    (fun proto ->
      let config = Core.Config.default_for proto ~n:32 in
      Format.printf "--- %s ---@.%a@.@." (Core.Config.protocol_name proto) Core.Config.pp
        config)
    [ Core.Config.PBFT; Core.Config.HotStuff; Core.Config.Raft ]

(* Fig. 5: peak throughput vs number of nodes, all seven systems. *)
let fig5 () =
  header
    "Figure 5: Scalability of single-leader protocols, their ISS counterparts, and Mir-BFT \
     (peak throughput, req/s)";
  let node_counts = [ 4; 16; 32; 128 ] in
  let systems =
    [
      C.Single Core.Config.PBFT;
      C.Single Core.Config.HotStuff;
      C.Single Core.Config.Raft;
      C.Iss Core.Config.PBFT;
      C.Iss Core.Config.HotStuff;
      C.Iss Core.Config.Raft;
      C.Mir;
    ]
  in
  let peaks = Hashtbl.create 64 in
  List.iter
    (fun system ->
      (* Mir-BFT only needs the endpoints of the curve. *)
      let node_counts =
        match system with C.Mir -> [ 4; 128 ] | C.Single _ | C.Iss _ -> node_counts
      in
      List.iter
        (fun n ->
          (* Larger deployments need longer runs: batch intervals stretch
             with n (fixed total batch rate). *)
          let duration_s = dur (if n >= 128 then 16.0 else 10.0 +. (float_of_int n /. 8.0)) in
          let r = E.peak_throughput ~system ~n ~duration_s ~seed () in
          Hashtbl.replace peaks (C.system_name system, n) r.E.throughput;
          emit ~extra:[ ("peak_throughput_req_s", Obs.Jsonx.Float r.E.throughput) ] r;
          print_result r)
        node_counts)
    systems;
  Printf.printf "\nImprovement of ISS over the single-leader baseline at n=128:\n";
  List.iter
    (fun proto ->
      let name = Core.Config.protocol_name proto in
      match
        (Hashtbl.find_opt peaks ("ISS-" ^ name, 128), Hashtbl.find_opt peaks (name, 128))
      with
      | Some iss, Some single when single > 0.0 ->
          Printf.printf "  %-9s %6.1fx   (paper: %s)\n" name (iss /. single)
            (match proto with
            | Core.Config.PBFT -> "37x"
            | Core.Config.HotStuff -> "56x"
            | Core.Config.Raft -> "55x")
      | _ -> ())
    [ Core.Config.PBFT; Core.Config.HotStuff; Core.Config.Raft ];
  Printf.printf "%!"

(* Fig. 6: latency vs throughput for increasing load. *)
let fig6 () =
  header
    "Figure 6: Latency over throughput for increasing load (ISS-PBFT / ISS-HotStuff / \
     ISS-Raft)";
  List.iter
    (fun proto ->
      let system = C.Iss proto in
      List.iter
        (fun n ->
          let fractions = [ 0.5; 0.9 ] in
          List.iter
            (fun frac ->
              let peak = E.saturation_estimate system ~n /. 1.2 in
              let rate = frac *. peak in
              let duration_s = dur (10.0 +. (float_of_int n /. 8.0)) in
              let r = E.run ~system ~n ~rate ~duration_s ~seed () in
              emit ~extra:[ ("load_fraction", Obs.Jsonx.Float frac) ] r;
              print_result r)
            fractions)
        [ 4; 32 ])
    [ Core.Config.PBFT; Core.Config.HotStuff; Core.Config.Raft ]

(* §6.4 fault experiments all use ISS-PBFT on 32 nodes at 16.4 kreq/s. *)
let fault_n = 32
let fault_rate = 16_400.0

(* The §6.4 faults: a crash of node 1 at the start of epoch 0 or just
   before its last epoch-0 proposal, and a node straggling all run long. *)
let epoch_start_crash = F.Crash { node = 1; at_s = 0.0 }

let epoch_end_crash =
  let config = C.config_of_system ~system:(C.Iss Core.Config.PBFT) ~n:fault_n () in
  F.Crash { node = 1; at_s = F.epoch_end_s config }

let straggler node = F.Straggle { node; from_s = 0.0; until_s = Float.infinity }

(* Fig. 7: leader policy impact under one crash (epoch start / epoch end). *)
let fig7 () =
  header
    "Figure 7: Impact of leader selection policies on mean and p95 latency under one crash \
     fault (ISS-PBFT, n=32, 16.4 kreq/s)";
  let policies =
    [
      ("SIMPLE", Core.Config.Simple);
      ("BACKOFF", Core.Config.Backoff);
      ("BLACKLIST", Core.Config.Blacklist);
    ]
  in
  List.iter
    (fun (fault_name, fault) ->
      List.iter
        (fun (pname, policy) ->
          let r =
            E.run ~policy ~faults:[ fault ] ~system:(C.Iss Core.Config.PBFT) ~n:fault_n
              ~rate:fault_rate ~duration_s:(dur 35.0) ~seed ()
          in
          emit
            ~extra:
              [ ("fault", Obs.Jsonx.String fault_name); ("policy", Obs.Jsonx.String pname) ]
            r;
          Printf.printf "%-12s %-10s mean=%6.2fs  p95=%6.2fs  tput=%8.0f req/s\n%!" fault_name
            pname r.E.mean_latency_s r.E.p95_latency_s r.E.throughput)
        policies)
    [ ("epoch-start", epoch_start_crash); ("epoch-end", epoch_end_crash) ]

(* Fig. 8: crash impact vs experiment duration (latency converges to
   fault-free as BLACKLIST excises the crashed leader). *)
let fig8 () =
  header
    "Figure 8: Crash-fault impact on mean and p95 latency for increasing experiment duration \
     (BLACKLIST, ISS-PBFT, n=32)";
  List.iter
    (fun duration_s ->
      List.iter
        (fun (fault_name, faults) ->
          let r =
            E.run ~faults ~system:(C.Iss Core.Config.PBFT) ~n:fault_n ~rate:fault_rate
              ~duration_s:(dur duration_s) ~seed ()
          in
          emit ~extra:[ ("fault", Obs.Jsonx.String fault_name) ] r;
          Printf.printf "duration=%4.0fs %-12s mean=%6.2fs  p95=%6.2fs\n%!" duration_s
            fault_name r.E.mean_latency_s r.E.p95_latency_s)
        [
          ("fault-free", []);
          ("epoch-start", [ epoch_start_crash ]);
          ("epoch-end", [ epoch_end_crash ]);
        ])
    [ 20.0; 45.0 ]

(* Fig. 9: throughput over time with one crash (1 s bins). *)
let fig9 () =
  header "Figure 9: ISS-PBFT throughput over time with one crash fault (BLACKLIST, n=32)";
  List.iter
    (fun (fault_name, faults) ->
      let r =
        E.run ~faults ~system:(C.Iss Core.Config.PBFT) ~n:fault_n ~rate:fault_rate
          ~duration_s:(dur 45.0) ~seed ()
      in
      emit ~series:true ~extra:[ ("fault", Obs.Jsonx.String fault_name) ] r;
      print_series (Printf.sprintf "--- crash at %s ---" fault_name) r.E.series)
    [ ("epoch start", [ epoch_start_crash ]); ("epoch end", [ epoch_end_crash ]) ]

(* Fig. 10: Mir-BFT throughput over time with one epoch-start crash; the
   crashed node periodically becomes epoch primary and stalls everyone. *)
let fig10 () =
  header "Figure 10: Mir-BFT throughput over time with one epoch-start crash fault (n=32)";
  (* Crash node 3: it becomes Mir epoch primary at epochs 3, 35, 67, ... so
     the recurring full-timeout stall appears early in the run. *)
  let r =
    E.run ~faults:[ F.Crash { node = 3; at_s = 0.0 } ] ~system:C.Mir ~n:fault_n ~rate:fault_rate
      ~duration_s:(dur 75.0) ~seed ()
  in
  emit ~series:true ~extra:[ ("fault", Obs.Jsonx.String "epoch-start-crash") ] r;
  print_series "--- Mir-BFT, 1 epoch-start crash ---" r.E.series;
  Printf.printf
    "(zero-throughput periods at epoch changes; full 10 s stalls when the crashed node is \
     epoch primary)\n\
     %!"

(* Fig. 11: latency over throughput with 1..10 Byzantine stragglers. *)
let fig11 () =
  header
    "Figure 11: ISS-PBFT latency over throughput with increasing Byzantine stragglers \
     (BLACKLIST, n=32)";
  List.iter
    (fun k ->
      let faults = List.init k (fun i -> straggler (1 + i)) in
      let r =
        E.run ~faults ~system:(C.Iss Core.Config.PBFT) ~n:fault_n ~rate:fault_rate
          ~duration_s:(dur 40.0) ~seed ()
      in
      emit ~extra:[ ("stragglers", Obs.Jsonx.Int k) ] r;
      Printf.printf "stragglers=%2d  tput=%8.0f req/s  mean=%6.2fs  p95=%6.2fs\n%!" k
        r.E.throughput r.E.mean_latency_s r.E.p95_latency_s)
    [ 0; 1; 4; 10 ]

(* Fig. 12: throughput over time with one straggler (5 s spikes). *)
let fig12 () =
  header "Figure 12: ISS-PBFT throughput over time with one Byzantine straggler (n=32)";
  let r =
    E.run ~faults:[ straggler 1 ] ~system:(C.Iss Core.Config.PBFT) ~n:fault_n
      ~rate:fault_rate ~duration_s:(dur 45.0) ~seed ()
  in
  emit ~series:true ~extra:[ ("stragglers", Obs.Jsonx.Int 1) ] r;
  print_series "--- 1 straggler ---" r.E.series;
  Printf.printf
    "(spikes every ~5 s: correct leaders' batches deliver once the straggler's batch \
     commits)\n\
     %!"

(* Overload sweep: offered load from 0.25x to 2x the saturation ceiling of
   a throttled ISS-PBFT with bounded admission, locating the knee and
   checking goodput holds past it (EXPERIMENTS.md "Overload sweep").
   Writes the BENCH_overload.json figure. *)
let overload () =
  header
    "Overload sweep: goodput across the saturation knee (throttled ISS-PBFT n=4, \
     bounded admission)";
  let sw = E.overload_sweep () in
  List.iter
    (fun (p : E.sweep_point) ->
      Format.printf "  %.2fx  %a@." p.E.fraction E.pp_result p.E.point)
    sw.E.sweep_points;
  Printf.printf "ceiling %.0f req/s; peak goodput %.0f req/s; knee at %.2fx\n%!" sw.E.ceiling
    sw.E.peak_goodput sw.E.knee_fraction;
  match !json_dir with
  | None -> ()
  | Some dir ->
      let file = Filename.concat dir "BENCH_overload.json" in
      let oc = open_out file in
      output_string oc (Obs.Jsonx.to_string (E.sweep_to_json sw));
      output_char oc '\n';
      close_out oc;
      Printf.printf "[wrote %s]\n%!" file

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out.  Not part of the
   default run (invoke with `bench/main.exe ablations`). *)

let ablations () =
  header
    "Ablation A: Raft batch timeout vs WAN round trip (§6.2 — a timeout below the RTT wastes \
     bandwidth on re-proposals)";
  List.iter
    (fun timeout_ms ->
      let tweak c =
        { c with Core.Config.min_batch_timeout = Sim.Time_ns.ms timeout_ms }
      in
      let r =
        E.run ~tweak ~system:(C.Iss Core.Config.Raft) ~n:16 ~rate:40_000.0 ~duration_s:(dur 20.0)
          ~seed ()
      in
      Printf.printf
        "timeout=%5dms  tput=%8.0f req/s  mean lat=%5.2fs  node-to-node traffic=%6.1f MB\n%!"
        timeout_ms r.E.throughput r.E.mean_latency_s
        (float_of_int r.E.net_bytes /. 1e6))
    [ 100; 600 ];
  header
    "Ablation B: PBFT total batch rate (§6.2 — the fixed rate caps message complexity; raising \
     it raises the ceiling and the traffic)";
  List.iter
    (fun rate_bps ->
      let tweak c = { c with Core.Config.batch_rate = Some rate_bps } in
      let r =
        E.peak_throughput ~tweak ~system:(C.Iss Core.Config.PBFT) ~n:16 ~duration_s:(dur 15.0)
          ~seed ()
      in
      Printf.printf
        "batch rate=%3.0f b/s  peak tput=%8.0f req/s  mean lat=%5.2fs  messages=%d\n%!" rate_bps
        r.E.throughput r.E.mean_latency_s r.E.net_messages)
    [ 16.0; 64.0 ];
  header
    "Ablation C: buckets per leader (§2.4 — more buckets smooth the leader-change rotation; \
     few buckets skew load)";
  List.iter
    (fun buckets ->
      let tweak c = { c with Core.Config.buckets_per_leader = buckets } in
      let r =
        E.run ~tweak ~system:(C.Iss Core.Config.PBFT) ~n:16 ~rate:30_000.0
          ~duration_s:(dur 15.0) ~seed ()
      in
      Printf.printf "buckets/leader=%3d  tput=%8.0f req/s  mean lat=%5.2fs  p95=%5.2fs\n%!"
        buckets r.E.throughput r.E.mean_latency_s r.E.p95_latency_s)
    [ 1; 16 ];
  header
    "Ablation D: leader-set size under SIMPLE vs epoch length (the min-segment floor, §6.2)";
  List.iter
    (fun min_seg ->
      let tweak c = { c with Core.Config.min_segment_size = min_seg } in
      let r =
        E.run ~tweak ~system:(C.Iss Core.Config.PBFT) ~n:32 ~rate:30_000.0
          ~duration_s:(dur 20.0) ~seed ()
      in
      Printf.printf "min segment=%3d  tput=%8.0f req/s  mean lat=%5.2fs\n%!" min_seg
        r.E.throughput r.E.mean_latency_s)
    [ 2; 16 ];
  header
    "Ablation E: dynamic straggler detection (§6.4.2 future work) — STRAGGLER-AWARE vs \
     BLACKLIST under one Byzantine straggler (n=32, 16.4 kreq/s)";
  List.iter
    (fun (pname, policy) ->
      let r =
        E.run ~policy ~faults:[ straggler 1 ] ~system:(C.Iss Core.Config.PBFT)
          ~n:32 ~rate:16_400.0 ~duration_s:(dur 60.0) ~seed ()
      in
      Printf.printf "%-16s tput=%8.0f req/s  mean lat=%6.2fs  p95=%6.2fs\n%!" pname
        r.E.throughput r.E.mean_latency_s r.E.p95_latency_s)
    [ ("BLACKLIST", Core.Config.Blacklist); ("STRAGGLER-AWARE", Core.Config.Straggler_aware) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks for the hot data structures. *)

let micro () =
  header "Micro-benchmarks (Bechamel): hot primitives";
  let open Bechamel in
  let open Toolkit in
  let sha_input = String.make 1024 'x' in
  let digests = Array.init 256 (fun i -> Iss_crypto.Hash.of_int i) in
  let requests =
    Array.init 4096 (fun i ->
        Proto.Request.make ~client:(i mod 64) ~ts:(i / 64) ~submitted_at:0 ())
  in
  let queue = Core.Bucket_queue.create ~num_buckets:16 in
  let segment_buckets = List.init 16 Fun.id in
  let tests =
    [
      Test.make ~name:"sha256-1KiB"
        (Staged.stage (fun () -> Iss_crypto.Sha256.digest sha_input));
      Test.make ~name:"merkle-root-256"
        (Staged.stage (fun () -> Iss_crypto.Merkle.root digests));
      Test.make ~name:"batch-make-4096"
        (Staged.stage (fun () -> Proto.Batch.make requests));
      (* A request's whole stay in the queues: arrive in one of 16 buckets,
         be cut in arrival order across all of them as a segment's batch is,
         commit.  The commits empty the index, so every round starts
         fresh. *)
      Test.make ~name:"bucket-queue-cycle-2048"
        (Staged.stage (fun () ->
             for i = 0 to 2047 do
               ignore (Core.Bucket_queue.add queue requests.(i))
             done;
             ignore (Core.Bucket_queue.cut queue ~buckets:segment_buckets ~max:2048);
             for i = 0 to 2047 do
               Core.Bucket_queue.commit queue requests.(i).Proto.Request.id
             done));
      Test.make ~name:"bucket-assignment-n128"
        (Staged.stage (fun () ->
             Core.Bucket_assignment.assign ~n:128 ~num_buckets:2048 ~epoch:7
               ~leaders:(Array.init 100 (fun i -> i))));
    ]
  in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let analysis =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/op\n%!" name est
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        analysis)
    tests

(* ------------------------------------------------------------------ *)

let all_figures =
  [
    ("table1", table1);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("overload", overload);
    ("ablations", ablations);
    ("micro", micro);
  ]

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let () =
  let rec parse_args names = function
    | [] -> List.rev names
    | "--json" :: dir :: rest ->
        json_dir := Some dir;
        parse_args names rest
    | [ "--json" ] ->
        prerr_endline "--json requires a directory argument";
        exit 2
    | name :: rest -> parse_args (name :: names) rest
  in
  let requested =
    match parse_args [] (List.tl (Array.to_list Sys.argv)) with
    | _ :: _ as names -> names
    | [] ->
        (* Importance order: if a run is cut short, the headline figures are
           already in the output. *)
        [
          "table1"; "fig5"; "fig7"; "fig9"; "fig11"; "fig12"; "fig10"; "fig8"; "overload";
          "micro"; "fig6"; "ablations";
        ]
  in
  (match !json_dir with None -> () | Some dir -> mkdirs dir);
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name all_figures with
      | Some f ->
          let t = Unix.gettimeofday () in
          f ();
          flush_figure_json name;
          Printf.printf "[%s done in %.0fs]\n%!" name (Unix.gettimeofday () -. t)
      | None ->
          Printf.printf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst all_figures)))
    requested;
  Printf.printf "\nTotal bench time: %.0fs\n%!" (Unix.gettimeofday () -. t0)
