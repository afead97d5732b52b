(* The heavyweight conformance sweep, opt-in via:  dune build @conform

   200 fuzzed seeds, each run against all three ISS instantiations,
   instrumented + bare.  On failure the scenario is greedily minimized and
   the repro JSON is printed, ready to commit into test/conform_corpus/. *)

let seeds = 200

let () =
  for k = 1 to seeds do
    let sc = Conform.Scenario.of_seed (Int64.of_int k) in
    (match Conform.Harness.check_scenario sc with
    | Ok _ -> ()
    | Error f ->
        let f = Conform.Shrink.minimize_failure f in
        Format.eprintf "CONFORMANCE FAILURE@.%a@." Conform.Harness.pp_failure f;
        Format.eprintf "minimized repro (commit into test/conform_corpus/):@.%s@."
          (Obs.Jsonx.to_string (Conform.Repro.to_json f));
        exit 1);
    if k mod 10 = 0 then Format.printf "conform sweep: %d/%d seeds OK@." k seeds
  done;
  Format.printf "conform sweep: %d seeds passed (x %d protocols, instrumented + bare)@."
    seeds
    (List.length Conform.Harness.protocols)
