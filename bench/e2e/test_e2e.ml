(* Checks of the benchmark's own definitions: the layer map covers lib/,
   BENCHMARK.json agrees with the metrics the bench emits, and a tiny run
   emits every declared metric with a finite value. *)

open E2e

(* dune runs tests from _build/default/bench/e2e. *)
let root = "../.."

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let rec ml_files rel =
  Sys.readdir (Filename.concat root rel)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let rel = rel ^ "/" ^ name in
         if Sys.is_directory (Filename.concat root rel) then ml_files rel
         else if Filename.check_suffix name ".ml" then [ rel ]
         else [])

let test_layer_map () =
  let files = ml_files "lib" in
  Alcotest.(check bool) "lib/ has sources" true (List.length files > 50);
  List.iter
    (fun file ->
      match Layers.of_file file with
      | None -> Alcotest.failf "%s has no layer in Layers.files or Layers.dirs" file
      | Some layer ->
          if not (List.mem layer Layers.all) then Alcotest.failf "%s maps to unknown layer %s" file layer)
    files

let benchmark = lazy (match Obs.Jsonx.of_string (read_file (Filename.concat root "BENCHMARK.json")) with
  | Ok json -> json
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let entries key =
  match Option.bind (Obs.Jsonx.member key (Lazy.force benchmark)) Obs.Jsonx.to_list with
  | Some l -> l
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" key

let field key json =
  match Obs.Jsonx.member key json with
  | Some (Obs.Jsonx.String s) -> s
  | _ -> Alcotest.failf "entry without string %S" key

let names key = List.map (field "name") (entries key)

let valid_name name =
  name <> ""
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || String.contains "_.-" c)
       name

let test_benchmark_json () =
  List.iter
    (fun key ->
      List.iter
        (fun name -> if not (valid_name name) then Alcotest.failf "%s name %S is not [A-Za-z0-9_.-]+" key name)
        (names key))
    [ "workloads"; "end_to_end"; "per_layer" ];
  List.iter
    (fun name ->
      if Workloads.find name = None then Alcotest.failf "BENCHMARK.json workload %s is not in Workloads.all" name)
    (names "workloads");
  let declared_e2e =
    List.map
      (fun e ->
        (field "name" e, field "unit" e, field "better" e, Option.bind (Obs.Jsonx.member "bound" e) Obs.Jsonx.to_float))
      (entries "end_to_end")
  in
  let bench_e2e =
    List.map (fun (e : Report.end_to_end) -> (e.e_name, e.e_unit, "lower", Some e.bound)) Report.end_to_end
  in
  Alcotest.(check bool) "end_to_end matches Report.end_to_end" true (declared_e2e = bench_e2e);
  let declared_layer = List.map (fun e -> (field "name" e, field "unit" e)) (entries "per_layer") in
  Alcotest.(check (list (pair string string))) "per_layer matches Report.per_layer_names" Report.per_layer_names
    declared_layer

(* 4 nodes, 1 simulated second: HotStuff is the protocol that delivers
   within that time at n=4. *)
let tiny =
  {
    (Option.get (Workloads.find "hotstuff32-crash")) with
    Workloads.name = "hotstuff4-tiny";
    n = 4;
    rate = 400.0;
    offered_s = 0.5;
    drain_s = 0.5;
    crash = None;
    resubmit = false;
  }

let test_tiny_run () =
  let bare = Workloads.run tiny ~seed:1L in
  let profiled = Workloads.run ~mode:Workloads.Profiled tiny ~seed:1L in
  Alcotest.(check bool) "requests delivered" true (bare.delivered > 0);
  Alcotest.(check string) "profiled run reproduces the bare one" (Report.fingerprint bare)
    (Report.fingerprint profiled);
  let metrics =
    Report.end_to_end_metrics tiny ~setup:(Workloads.setup_samples tiny ~seed:1L) ~reps:[ bare ]
    @ Report.per_layer_metrics ~reps:[ bare ] ~traced:[ profiled ]
  in
  List.iter
    (fun name ->
      match List.find_opt (fun (m : Report.metric) -> m.name = name) metrics with
      | None -> Alcotest.failf "declared metric %s not emitted" name
      | Some m -> if not (Float.is_finite m.value) then Alcotest.failf "%s = %f" name m.value)
    (names "end_to_end" @ names "per_layer")

(* Reference values from Python's statistics.quantiles(values, n=4). *)
let test_stats () =
  let q = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12)) in
  Alcotest.check q "odd" (1.0, 2.0, 5.0) (Stats.quartiles [ 5.0; 1.0; 2.0 ]);
  Alcotest.check q "even" (1.25, 2.5, 3.75) (Stats.quartiles [ 4.0; 1.0; 3.0; 2.0 ]);
  let verdict a b = Stats.verdict_name (Stats.compare ~lower_is_better:true ~bound:0.1 a b).verdict in
  let base = [ 1.00; 1.01; 0.99; 1.02; 0.98; 1.00; 1.01; 0.99; 1.00; 1.00 ] in
  let scale k = List.map (fun x -> x *. k) base in
  Alcotest.(check string) "same" "same" (verdict base (scale 1.01));
  Alcotest.(check string) "worse" "worse" (verdict base (scale 1.2));
  Alcotest.(check string) "better" "better" (verdict base (scale 0.8));
  Alcotest.(check string) "unresolved" "unresolved" (verdict base [ 0.7; 1.3; 0.8; 1.2; 1.0 ])

let () =
  Alcotest.run "e2e"
    [
      ( "definitions",
        [
          Alcotest.test_case "layer map covers lib/" `Quick test_layer_map;
          Alcotest.test_case "BENCHMARK.json names" `Quick test_benchmark_json;
          Alcotest.test_case "quartiles and verdicts" `Quick test_stats;
        ] );
      ("run", [ Alcotest.test_case "4 nodes, 1 simulated second" `Quick test_tiny_run ]);
    ]
