(* End-to-end wall-clock benchmark with an outside-in per-layer profile.

     dune exec bench/e2e/e2e_bench.exe -- [--workload W] [--seed N]
       [--seconds S] [--trace [0|1]] [--json FILE]
     dune exec bench/e2e/e2e_bench.exe -- compare A.json B.json

   Each repetition of a workload runs in a child process of its own, one at
   a time, on one domain.  Without [--seconds] a workload runs once; with it,
   repetitions continue while the next one is expected to end within S
   seconds (set-up included), and wall-clock metrics are their medians.
   [--trace] adds one invariant-checked run and a profiled repetition after
   each untraced one, and reports per-layer metrics.

   For every workload it prints [workload metric value unit] lines, then
   one JSON line {correct, attempted, failed, metrics} holding the
   end-to-end metrics, or the per-layer ones with [--trace].  [--json FILE]
   appends the run to FILE, the format [compare] reads.  The exit code is 1
   when an output check fails: a request undelivered after the drain, an
   online safety or exactly-once invariant, or a run whose deterministic
   outputs differ from the first repetition's. *)

open E2e

let usage () =
  prerr_endline
    "usage: e2e_bench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--json FILE]\n\
    \       e2e_bench compare A.json B.json";
  exit 2

(* Each measured piece of work runs in a fresh process of this executable,
   [e2e_bench child WHAT WORKLOAD SEED], which writes its marshalled result
   to stdout.  A fresh process, unlike a fork, starts from the same heap
   whatever the parent ran before: OCaml's allocation counters and peak heap
   depend on when collections fall, so only then do they repeat exactly. *)
let modes = [ ("bare", Workloads.Bare); ("profiled", Workloads.Profiled); ("checked", Workloads.Checked) ]

let child_main what name seed =
  let respond f =
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    set_binary_mode_out stdout true;
    Marshal.to_channel stdout result [];
    exit (if Result.is_ok result then 0 else 1)
  in
  match (Workloads.find name, Int64.of_string_opt seed, what) with
  | Some w, Some seed, "setup" -> respond (fun () -> Workloads.setup_samples w ~seed)
  | Some w, Some seed, mode when List.mem_assoc mode modes ->
      respond (fun () -> Workloads.run ~mode:(List.assoc mode modes) w ~seed)
  | _ -> usage ()

(* Raises [Failure] with the child's exception, or when it died without
   answering. *)
let in_child what (w : Workloads.t) ~seed : 'a =
  flush_all ();
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "child"; what; w.name; Int64.to_string seed |] in
  set_binary_mode_in ic true;
  let result : ('a, string) result =
    try Marshal.from_channel ic with End_of_file | Failure _ -> Error "child died without a result"
  in
  match (result, Unix.close_process_in ic) with
  | Ok v, Unix.WEXITED 0 -> v
  | Error e, _ -> failwith e
  | Ok _, _ -> failwith "child exited abnormally"

let value_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.6g" v

let metrics_json metrics =
  Obs.Jsonx.Obj
    (List.map
       (fun (m : Report.metric) ->
         (m.name, Obs.Jsonx.Obj [ ("value", Obs.Jsonx.Float m.value); ("unit", Obs.Jsonx.String m.unit_) ]))
       metrics)

type outcome = {
  workload : string;
  seed : int64;
  trace : bool;
  correct : bool;
  metrics : Report.metric list;
}

let measure ~seed ~seconds ~trace (w : Workloads.t) =
  let run mode : Workloads.rep = in_child mode w ~seed in
  let t0 = Unix.gettimeofday () in
  (* Set-up is sampled before every repetition, so that its median spans
     the whole run rather than one moment of the host's load. *)
  let rec repeat acc =
    let setup : float list = in_child "setup" w ~seed in
    let rep = run "bare" in
    let acc = (setup, rep, if trace then [ run "profiled" ] else []) :: acc in
    let elapsed = Unix.gettimeofday () -. t0 in
    match seconds with
    | Some s when elapsed +. (elapsed /. float_of_int (List.length acc)) <= s -> repeat acc
    | Some _ | None -> List.rev acc
  in
  match
    let checked = if trace then [ run "checked" ] else [] in
    (checked, repeat [])
  with
  | exception Failure e -> Error e
  | checked, reps ->
      Ok
        ( List.concat_map (fun (setup, _, _) -> setup) reps,
          List.map (fun (_, rep, _) -> rep) reps,
          List.concat_map (fun (_, _, traced) -> traced) reps,
          checked )

let run_workload ~seed ~seconds ~trace (w : Workloads.t) =
  Printf.printf "# %s: %s\n%!" w.name w.why;
  let correct, attempted, failed, e2e, layer =
    match measure ~seed ~seconds ~trace w with
    | Error e ->
        Printf.eprintf "%s: FAILED: %s\n%!" w.name e;
        (false, 0, 0, [], [])
    | Ok (setup, reps, traced, checked) ->
        let r = List.hd reps in
        let e2e = Report.end_to_end_metrics w ~setup ~reps in
        let layer = if trace then Report.per_layer_metrics ~reps ~traced else [] in
        Printf.printf "# %d repetition(s), seed %Ld, %.0f simulated s each\n" (List.length reps) seed
          (Workloads.sim_s w);
        List.iter
          (fun (m : Report.metric) ->
            Printf.printf "%s %s %s %s%s\n" w.name m.name (value_string m.value) m.unit_
              (if String.starts_with ~prefix:"lat_" m.name then Printf.sprintf " n=%d" r.lat_count else ""))
          (e2e @ layer);
        let errors = Report.check ~reps ~others:(traced @ checked) in
        List.iter (fun e -> Printf.eprintf "%s: CHECK FAILED: %s\n%!" w.name e) errors;
        let all = reps @ traced @ checked in
        let attempted = List.fold_left (fun acc (r : Workloads.rep) -> acc + r.submitted) 0 all in
        let delivered = List.fold_left (fun acc (r : Workloads.rep) -> acc + r.delivered) 0 all in
        (errors = [], attempted, attempted - delivered, e2e, layer)
  in
  print_endline
    (Obs.Jsonx.to_string
       (Obs.Jsonx.Obj
          [
            ("correct", Obs.Jsonx.Bool correct);
            ("attempted", Obs.Jsonx.Int attempted);
            ("failed", Obs.Jsonx.Int failed);
            ("metrics", metrics_json (if trace then layer else e2e));
          ]));
  { workload = w.name; seed; trace; correct; metrics = e2e @ layer }

(* ------------------------------------------------------------------ *)
(* Run files: {"bench": "e2e", "host_dependent": [...], "runs": [...]} *)

let read_runs file =
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Jsonx.of_string text with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok json -> (
      match Option.bind (Obs.Jsonx.member "runs" json) Obs.Jsonx.to_list with
      | Some runs -> runs
      | None -> failwith (Printf.sprintf "%s: no \"runs\" list" file))

let run_json o =
  Obs.Jsonx.Obj
    [
      ("workload", Obs.Jsonx.String o.workload);
      ("seed", Obs.Jsonx.String (Int64.to_string o.seed));
      ("trace", Obs.Jsonx.Bool o.trace);
      ("correct", Obs.Jsonx.Bool o.correct);
      ("metrics", metrics_json o.metrics);
    ]

let append_runs file outcomes =
  let previous = if Sys.file_exists file then read_runs file else [] in
  let json =
    Obs.Jsonx.Obj
      [
        ("bench", Obs.Jsonx.String "e2e");
        ( "host_dependent",
          Obs.Jsonx.List
            (List.map (fun n -> Obs.Jsonx.String n) (List.filter Report.host_dependent Report.all_names)) );
        ("runs", Obs.Jsonx.List (previous @ List.map run_json outcomes));
      ]
  in
  let oc = open_out_bin file in
  output_string oc (Obs.Jsonx.to_string json);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* compare A.json B.json *)

let string_field name json =
  match Obs.Jsonx.member name json with Some (Obs.Jsonx.String s) -> s | _ -> ""

let metric_value name run =
  Option.bind (Obs.Jsonx.member "metrics" run) (fun m ->
      Option.bind (Obs.Jsonx.member name m) (fun v -> Option.bind (Obs.Jsonx.member "value" v) Obs.Jsonx.to_float))

let compare_files fa fb =
  let a = read_runs fa and b = read_runs fb in
  let workloads =
    List.sort_uniq compare (List.map (string_field "workload") a)
    |> List.filter (fun w -> List.exists (fun r -> string_field "workload" r = w) b)
  in
  let flagged = ref 0 in
  Printf.printf "%-17s %-20s %29s %29s %5s  %s\n" "workload" "metric" "A median [q1, q3] (runs)"
    "B median [q1, q3] (runs)" "win" "verdict";
  List.iter
    (fun w ->
      let of_side runs = List.filter (fun r -> string_field "workload" r = w) runs in
      let ra = of_side a and rb = of_side b in
      List.iter
        (fun (e : Report.end_to_end) ->
          let values runs = List.filter_map (metric_value e.e_name) runs in
          match (values ra, values rb) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let c = Stats.compare ~lower_is_better:true ~bound:e.bound va vb in
              let side (q1, m, q3) n = Printf.sprintf "%.6g [%.6g, %.6g] (%d)" m q1 q3 n in
              if c.verdict = Stats.Worse || c.verdict = Stats.Unresolved then incr flagged;
              Printf.printf "%-17s %-20s %29s %29s %5.2f  %s%s\n" w e.e_name (side c.a (List.length va))
                (side c.b (List.length vb)) c.win (Stats.verdict_name c.verdict)
                (if e.host_dependent then " (host-dependent)" else ""))
        Report.end_to_end;
      (* Exact fields: any difference between runs of one seed is a change
         in behaviour or allocation, whatever its size. *)
      List.iter
        (fun seed ->
          let of_seed runs = List.find_opt (fun r -> string_field "seed" r = seed) runs in
          match (of_seed ra, of_seed rb) with
          | Some run_a, Some run_b ->
              List.iter
                (fun name ->
                  match (metric_value name run_a, metric_value name run_b) with
                  | Some x, Some y when x <> y && not (Report.host_dependent name) ->
                      incr flagged;
                      Printf.printf "%-17s %-20s seed %s: exact field changed %.17g -> %.17g\n" w name seed x y
                  | _ -> ())
                Report.all_names
          | _ -> ())
        (List.sort_uniq compare (List.map (string_field "seed") ra)))
    workloads;
  if !flagged > 0 then begin
    Printf.printf "%d metric(s) worse, unresolved or changed\n" !flagged;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_files a b
  | [ "child"; what; name; seed ] -> child_main what name seed
  | args ->
      let workload = ref None and seed = ref 42L and seconds = ref None and trace = ref false
      and json = ref None in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: rest ->
            workload := Some w;
            parse rest
        | "--seed" :: n :: rest ->
            seed := (match Int64.of_string_opt n with Some n -> n | None -> usage ());
            parse rest
        | "--seconds" :: s :: rest ->
            seconds := (match float_of_string_opt s with Some s -> Some s | None -> usage ());
            parse rest
        | "--trace" :: (("0" | "1") as v) :: rest ->
            trace := v = "1";
            parse rest
        | "--trace" :: rest ->
            trace := true;
            parse rest
        | "--json" :: file :: rest ->
            json := Some file;
            parse rest
        | _ -> usage ()
      in
      parse args;
      let selected =
        match !workload with
        | None -> Workloads.all
        | Some name -> (
            match Workloads.find name with
            | Some w -> [ w ]
            | None ->
                Printf.eprintf "unknown workload %S; known: %s\n" name
                  (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
                exit 2)
      in
      let outcomes =
        List.map (run_workload ~seed:!seed ~seconds:!seconds ~trace:!trace) selected
      in
      Option.iter (fun file -> append_runs file outcomes) !json;
      if not (List.for_all (fun o -> o.correct) outcomes) then exit 1
