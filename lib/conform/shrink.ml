(* Greedy scenario minimization.

   Given a failing scenario, repeatedly try structurally smaller variants —
   drop a fault, halve a fault window, halve the duration or the load,
   shrink the client pool or the cluster — and keep any variant that still
   fails.  The result is the smallest variant found within the re-run
   budget, which becomes the committed repro. *)

module Faults = Runner.Faults

let quant x = Float.round (x *. 1000.0) /. 1000.0

(* Halve the active window of one fault spec (recovery delay, partition /
   loss / straggle / slow-link width).  Returns None when the spec has no
   window to shrink or it is already minimal. *)
let halve_window spec =
  let half from_s until_s = quant (from_s +. ((until_s -. from_s) /. 2.0)) in
  let wide from_s until_s = until_s -. from_s > 0.5 in
  match spec with
  | Faults.Crash_recover r when r.down_s > 0.5 ->
      Some (Faults.Crash_recover { r with down_s = quant (r.down_s /. 2.0) })
  | Faults.Isolate r when wide r.from_s r.until_s ->
      Some (Faults.Isolate { r with until_s = half r.from_s r.until_s })
  | Faults.Split r when wide r.from_s r.until_s ->
      Some (Faults.Split { r with until_s = half r.from_s r.until_s })
  | Faults.Drop r when wide r.from_s r.until_s ->
      Some (Faults.Drop { r with until_s = half r.from_s r.until_s })
  | Faults.Straggle r when wide r.from_s r.until_s ->
      Some (Faults.Straggle { r with until_s = half r.from_s r.until_s })
  | Faults.Slow_link r when wide r.from_s r.until_s ->
      Some (Faults.Slow_link { r with until_s = half r.from_s r.until_s })
  | Faults.Byzantine r when wide r.from_s r.until_s ->
      Some (Faults.Byzantine { r with until_s = half r.from_s r.until_s })
  | _ -> None

let spec_nodes = function
  | Faults.Crash { node; _ }
  | Faults.Recover { node; _ }
  | Faults.Crash_recover { node; _ }
  | Faults.Isolate { node; _ }
  | Faults.Straggle { node; _ }
  | Faults.Byzantine { node; _ } ->
      [ node ]
  | Faults.Split { minority; _ } -> minority
  | Faults.Drop _ -> []
  | Faults.Slow_link { a; b; _ } -> [ a; b ]

(* Candidate simpler scenarios, most aggressive first: each either removes a
   whole dimension of the failure or halves one. *)
let candidates (sc : Scenario.t) : Scenario.t list =
  let drop_one =
    List.mapi
      (fun i _ ->
        { sc with Scenario.faults = List.filteri (fun j _ -> j <> i) sc.Scenario.faults })
      sc.Scenario.faults
  in
  let halve_one =
    List.concat
      (List.mapi
         (fun i spec ->
           match halve_window spec with
           | None -> []
           | Some spec' ->
               [
                 {
                   sc with
                   Scenario.faults =
                     List.mapi (fun j s -> if j = i then spec' else s) sc.Scenario.faults;
                 };
               ])
         sc.Scenario.faults)
  in
  let smaller_cluster =
    if sc.Scenario.n > 4 then
      (* Keep only faults whose nodes survive the shrink. *)
      [
        {
          sc with
          Scenario.n = 4;
          faults = List.filter (fun s -> List.for_all (fun i -> i < 4) (spec_nodes s)) sc.Scenario.faults;
        };
      ]
    else []
  in
  let shorter =
    if sc.Scenario.duration_s > 2.0 then
      [ { sc with Scenario.duration_s = quant (sc.Scenario.duration_s /. 2.0) } ]
    else []
  in
  let lighter =
    if sc.Scenario.rate > 40.0 then [ { sc with Scenario.rate = quant (sc.Scenario.rate /. 2.0) } ]
    else []
  in
  let fewer_clients =
    if sc.Scenario.num_clients > 1 then
      [ { sc with Scenario.num_clients = sc.Scenario.num_clients / 2 } ]
    else []
  in
  let no_overload =
    match sc.Scenario.overload with
    | Some _ -> [ { sc with Scenario.overload = None } ]
    | None -> []
  in
  List.filter
    (fun c -> Scenario.validate c = Ok ())
    (drop_one @ no_overload @ smaller_cluster @ shorter @ halve_one @ lighter
   @ fewer_clients)

(* Greedy descent: adopt the first candidate that still fails; stop when no
   candidate fails or the re-run budget is spent.  [still_fails] should run
   the same check that produced the original failure. *)
let minimize ?(budget = 48) (sc : Scenario.t) ~still_fails =
  let spent = ref 0 in
  let rec go sc =
    let rec try_candidates = function
      | [] -> sc
      | c :: rest ->
          if !spent >= budget then sc
          else begin
            incr spent;
            if still_fails c then go c else try_candidates rest
          end
    in
    try_candidates (candidates sc)
  in
  go sc

let minimize_failure ?budget (f : Harness.failure) =
  (* Re-run the same pair-check (instrumented + bare + fingerprint equality)
     that produced the failure, so determinism failures shrink too. *)
  let still_fails sc = Result.is_error (Harness.check_protocol sc f.Harness.protocol) in
  let sc = minimize ?budget f.Harness.scenario ~still_fails in
  match Harness.check_protocol sc f.Harness.protocol with
  | Error f' -> f'
  | Ok _ ->
      (* The minimized scenario no longer fails under a fresh pair-run; the
         greedy descent never adopts such a variant, so this only happens
         when no candidate helped at all — keep the original. *)
      f
