(* Observability subsystem: JSON printer/parser, lifecycle tracer, metric
   registry — and the zero-perturbation guarantee: instrumented
   runs must produce bit-identical results to bare ones. *)

module J = Obs.Jsonx

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Jsonx *)

let test_jsonx_print () =
  check_string "scalars" {|[null,true,-3,1.5,"a\"b\\c\nd"]|}
    (J.to_string (J.List [ J.Null; J.Bool true; J.Int (-3); J.Float 1.5; J.String "a\"b\\c\nd" ]));
  check_string "object" {|{"a":1,"b":[]}|}
    (J.to_string (J.Obj [ ("a", J.Int 1); ("b", J.List []) ]));
  check_string "non-finite floats degrade to null" {|[null,null]|}
    (J.to_string (J.List [ J.Float nan; J.Float infinity ]));
  check_string "control chars escaped" {|"\u0001"|} (J.to_string (J.String "\001"))

let test_jsonx_roundtrip () =
  let v =
    J.Obj
      [
        ("name", J.String "node.nic.tx_backlog_s");
        ("node", J.Int 3);
        ("values", J.List [ J.Float 0.25; J.Int 7; J.Null; J.Bool false ]);
        ("nested", J.Obj [ ("esc", J.String "tab\there \"and\" slash\\") ]);
      ]
  in
  match J.of_string (J.to_string v) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' -> check_string "roundtrip" (J.to_string v) (J.to_string v')

let test_jsonx_parse_errors () =
  let bad s = match J.of_string s with Ok _ -> false | Error _ -> true in
  check_bool "trailing garbage" true (bad "1 x");
  check_bool "unterminated string" true (bad {|"abc|});
  check_bool "bare word" true (bad "nope");
  check_bool "unclosed list" true (bad "[1,2");
  check_bool "missing colon" true (bad {|{"a" 1}|})

let test_jsonx_accessors () =
  let v = J.Obj [ ("x", J.Int 2); ("l", J.List [ J.Float 0.5 ]) ] in
  check_bool "member" true (J.member "x" v = Some (J.Int 2));
  check_bool "missing member" true (J.member "y" v = None);
  check_bool "int widens" true (J.member "x" v |> Option.get |> J.to_float = Some 2.0);
  check_int "to_list" 1 (List.length (Option.get (J.to_list (Option.get (J.member "l" v)))))

(* ------------------------------------------------------------------ *)
(* Tracer + registry on a real (small) simulation *)

let run_instrumented ?(sample = 1) ?max_events () =
  let engine = Sim.Engine.create () in
  let tracer = Obs.Tracer.create ~sample ?max_events ~engine () in
  let registry = Obs.Registry.create () in
  let r =
    Runner.Experiment.run ~engine ~tracer ~registry ~system:(Runner.Cluster.Iss Core.Config.PBFT)
      ~n:4 ~rate:400.0 ~duration_s:6.0 ~seed:7L ()
  in
  (r, tracer, registry, engine)

let test_tracer_covers_all_phases () =
  let _r, tracer, _registry, _engine = run_instrumented () in
  let seen = Hashtbl.create 8 in
  Obs.Tracer.iter tracer (fun ~req:_ ~node:_ ~at:_ phase -> Hashtbl.replace seen phase ());
  List.iter
    (fun phase ->
      check_bool (Printf.sprintf "phase %s recorded" (Obs.Tracer.phase_name phase)) true
        (Hashtbl.mem seen phase))
    Obs.Tracer.all_phases;
  check_bool "events recorded" true (Obs.Tracer.num_events tracer > 0);
  check_int "nothing dropped" 0 (Obs.Tracer.dropped tracer)

let test_tracer_jsonl_parses () =
  let _r, tracer, _registry, _engine = run_instrumented () in
  let lines = String.split_on_char '\n' (String.trim (Obs.Tracer.to_jsonl_string tracer)) in
  check_bool "at least one line per event" true (List.length lines >= Obs.Tracer.num_events tracer);
  let phase_names = List.map Obs.Tracer.phase_name Obs.Tracer.all_phases in
  List.iter
    (fun line ->
      match J.of_string line with
      | Error e -> Alcotest.failf "JSONL line does not parse: %s (%s)" line e
      | Ok v ->
          if J.member "dropped_events" v = None then begin
            check_bool "req field" true (J.member "req" v <> None);
            check_bool "t field" true (J.member "t" v <> None);
            match J.member "phase" v with
            | Some (J.String p) -> check_bool ("known phase " ^ p) true (List.mem p phase_names)
            | _ -> Alcotest.fail "phase field missing"
          end)
    lines

let test_tracer_sampling_and_bound () =
  let _r, all, _, _ = run_instrumented ~sample:1 () in
  let _r, sampled, _, _ = run_instrumented ~sample:8 () in
  check_bool "sampling records fewer events" true
    (Obs.Tracer.num_events sampled < Obs.Tracer.num_events all);
  check_bool "sampling records something" true (Obs.Tracer.num_events sampled > 0);
  let _r, capped, _, _ = run_instrumented ~max_events:100 () in
  check_int "memory bound respected" 100 (Obs.Tracer.num_events capped);
  check_bool "overflow counted, not stored" true (Obs.Tracer.dropped capped > 0)

(* A request key's low bits are its timestamp: sampling must mix the whole
   key, or every client's first request would be kept. *)
let test_tracer_samples_first_requests () =
  let engine = Sim.Engine.create () in
  let tracer = Obs.Tracer.create ~sample:16 ~engine () in
  let clients = 1024 in
  for client = 0 to clients - 1 do
    Obs.Tracer.record tracer
      ~req:(Proto.Request.id_key { Proto.Request.client; ts = 0 })
      ~node:(-1) ~at:0 Obs.Tracer.Submit
  done;
  let kept = Obs.Tracer.num_events tracer in
  if kept < clients / 32 || kept > clients / 8 then
    Alcotest.failf "kept %d of %d first requests at 1/16 sampling" kept clients

let test_breakdown () =
  let _r, tracer, _registry, _engine = run_instrumented () in
  let bd = Obs.Tracer.breakdown tracer in
  check_bool "has end-to-end transition" true (List.mem_assoc "submit -> reply" bd);
  let e2e = List.assoc "submit -> reply" bd in
  check_bool "end-to-end samples" true (Sim.Metrics.Histogram.count e2e > 0);
  check_bool "p99 >= p95" true
    (Sim.Metrics.Histogram.percentile e2e 99.0 >= Sim.Metrics.Histogram.percentile e2e 95.0);
  List.iter
    (fun (name, h) ->
      check_bool (name ^ " non-negative mean") true
        (Sim.Metrics.Histogram.count h = 0 || Sim.Metrics.Histogram.mean h >= 0.0))
    bd

let test_registry_snapshot () =
  let _r, _tracer, registry, engine = run_instrumented () in
  check_bool "metrics registered" true (Obs.Registry.num_metrics registry > 0);
  let snap = Obs.Registry.snapshot registry ~at:(Sim.Engine.now engine) in
  (* The snapshot must survive a print/parse roundtrip and carry the core
     gauge set from DESIGN.md §8. *)
  (match J.of_string (J.to_string snap) with
  | Error e -> Alcotest.failf "snapshot does not reparse: %s" e
  | Ok _ -> ());
  let metrics = Option.get (J.to_list (Option.get (J.member "metrics" snap))) in
  let names =
    List.filter_map
      (fun m -> match J.member "name" m with Some (J.String s) -> Some s | _ -> None)
      metrics
  in
  List.iter
    (fun expected ->
      check_bool ("metric " ^ expected) true (List.mem expected names))
    [
      "net.messages_sent";
      "cluster.delivered_quorum";
      "cluster.latency_s";
      "node.bucket_queue.occupancy";
      "node.commit_queue.depth";
      "node.orderer.instances";
      "node.checkpoint.lag_epochs";
      "node.nic.tx_backlog_s";
    ];
  (* Sanity of one polled value: delivered counter matches the result. *)
  let delivered =
    List.find_map
      (fun m ->
        match (J.member "name" m, J.member "value" m) with
        | Some (J.String "cluster.delivered_quorum"), Some v -> J.to_float v
        | _ -> None)
      metrics
  in
  check_bool "delivered gauge positive" true (Option.get delivered > 0.0)

(* The observability contract that protects every benchmark number: an
   instrumented run and a bare run of the same seed produce identical
   results. *)
let test_instrumentation_does_not_perturb () =
  let bare =
    Runner.Experiment.run ~system:(Runner.Cluster.Iss Core.Config.PBFT) ~n:4 ~rate:400.0
      ~duration_s:6.0 ~seed:7L ()
  in
  let traced, _, _, _ = run_instrumented () in
  let open Runner.Experiment in
  check_int "submitted" bare.submitted traced.submitted;
  check_int "delivered" bare.delivered traced.delivered;
  check_int "sim events" bare.sim_events traced.sim_events;
  check_int "net messages" bare.net_messages traced.net_messages;
  check_int "net bytes" bare.net_bytes traced.net_bytes;
  Alcotest.(check (float 0.0)) "throughput" bare.throughput traced.throughput;
  Alcotest.(check (float 0.0)) "mean latency" bare.mean_latency_s traced.mean_latency_s;
  Alcotest.(check (float 0.0)) "p99 latency" bare.p99_latency_s traced.p99_latency_s;
  check_int "series length" (Array.length bare.series) (Array.length traced.series);
  Array.iteri
    (fun i v -> Alcotest.(check (float 0.0)) (Printf.sprintf "series bin %d" i) v traced.series.(i))
    bare.series

let test_result_json () =
  let r, _, _, _ = run_instrumented () in
  let j = Runner.Experiment.result_to_json ~series:true r in
  match J.of_string (J.to_string j) with
  | Error e -> Alcotest.failf "result json does not reparse: %s" e
  | Ok v ->
      check_bool "p99 present" true (J.member "p99_latency_s" v <> None);
      check_bool "p99 >= p95" true
        (Option.get (J.to_float (Option.get (J.member "p99_latency_s" v)))
        >= Option.get (J.to_float (Option.get (J.member "p95_latency_s" v))));
      let series = Option.get (J.to_list (Option.get (J.member "series_req_s" v))) in
      check_int "series exported" (Array.length r.Runner.Experiment.series) (List.length series)

let () =
  Alcotest.run "obs"
    [
      ( "jsonx",
        [
          Alcotest.test_case "printing" `Quick test_jsonx_print;
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_jsonx_parse_errors;
          Alcotest.test_case "accessors" `Quick test_jsonx_accessors;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "covers all seven phases" `Quick test_tracer_covers_all_phases;
          Alcotest.test_case "JSONL parses" `Quick test_tracer_jsonl_parses;
          Alcotest.test_case "sampling + memory bound" `Quick test_tracer_sampling_and_bound;
          Alcotest.test_case "sampling mixes the client" `Quick
            test_tracer_samples_first_requests;
          Alcotest.test_case "latency breakdown" `Quick test_breakdown;
        ] );
      ( "registry",
        [ Alcotest.test_case "snapshot" `Quick test_registry_snapshot ] );
      ( "integration",
        [
          Alcotest.test_case "no perturbation vs bare run" `Quick
            test_instrumentation_does_not_perturb;
          Alcotest.test_case "result json" `Quick test_result_json;
        ] );
    ]
