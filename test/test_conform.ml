(* Conformance subsystem: scenario fuzzer/codec, differential checker,
   shrinker, and replay of the committed regression corpus.

   The corpus files in [conform_corpus/] are minimized repros of real bugs
   the fuzzer found; each is replayed bit-identically here (the fixes must
   keep them green).  A fault-free fixed seed also runs the full pipeline —
   three protocols, instrumented + bare with fingerprint equality — so
   tier-1 exercises the same path as [iss_sim conform]. *)

module Scenario = Conform.Scenario
module Harness = Conform.Harness
module Shrink = Conform.Shrink
module Adversary = Runner.Adversary

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Scenario fuzzer + JSON codec *)

let test_scenario_roundtrip () =
  for k = 1 to 30 do
    let sc = Scenario.of_seed (Int64.of_int k) in
    check_bool
      (Printf.sprintf "seed %d validates" k)
      true
      (Result.is_ok (Scenario.validate sc));
    match Scenario.of_string (Scenario.to_string sc) with
    | Error e -> Alcotest.failf "seed %d does not round-trip: %s" k e
    | Ok sc' ->
        check_bool (Printf.sprintf "seed %d round-trips exactly" k) true (sc = sc')
  done

(* One spec of every fault kind with the exact JSON a committed repro
   carries for it.  [of_seed] never draws some of these (recover, split,
   bucketed censor), so the seed round-trip above cannot pin them. *)
let golden_specs =
  let open Runner.Faults in
  [
    (Crash { node = 2; at_s = 1.5 }, {|{"kind":"crash","node":2,"at_s":1.5}|});
    (Recover { node = 2; at_s = 3.25 }, {|{"kind":"recover","node":2,"at_s":3.25}|});
    ( Crash_recover { node = 1; at_s = 0.5; down_s = 2.0 },
      {|{"kind":"crash_recover","node":1,"at_s":0.5,"down_s":2}|} );
    ( Isolate { node = 3; from_s = 1.0; until_s = 2.5 },
      {|{"kind":"isolate","node":3,"from_s":1,"until_s":2.5}|} );
    ( Split { minority = [ 1 ]; from_s = 0.75; until_s = 1.75 },
      {|{"kind":"split","minority":[1],"from_s":0.75,"until_s":1.75}|} );
    ( Drop { prob = 0.05; from_s = 0.5; until_s = 4.5 },
      {|{"kind":"drop","prob":0.05,"from_s":0.5,"until_s":4.5}|} );
    ( Straggle { node = 2; from_s = 2.0; until_s = 9.0 },
      {|{"kind":"straggle","node":2,"from_s":2,"until_s":9}|} );
    ( Slow_link { a = 0; b = 1; extra = Sim.Time_ns.ms 100; from_s = 1.0; until_s = 8.0 },
      {|{"kind":"slow_link","a":0,"b":1,"extra_ns":100000000,"from_s":1,"until_s":8}|} );
    ( Byzantine { node = 1; attack = Adversary.Equivocate; from_s = 2.0; until_s = 11.0 },
      {|{"kind":"equivocate","node":1,"from_s":2,"until_s":11}|} );
    ( Byzantine
        { node = 1; attack = Adversary.Censor { buckets = [] }; from_s = 2.0; until_s = 12.0 },
      {|{"kind":"censor","node":1,"buckets":[],"from_s":2,"until_s":12}|} );
    ( Byzantine
        {
          node = 1;
          attack = Adversary.Censor { buckets = [ 3; 17 ] };
          from_s = 2.0;
          until_s = 12.0;
        },
      {|{"kind":"censor","node":1,"buckets":[3,17],"from_s":2,"until_s":12}|} );
    ( Byzantine { node = 1; attack = Adversary.Corrupt_sig; from_s = 2.0; until_s = 13.0 },
      {|{"kind":"corrupt_sig","node":1,"from_s":2,"until_s":13}|} );
    ( Byzantine { node = 1; attack = Adversary.Replay; from_s = 2.0; until_s = 14.0 },
      {|{"kind":"replay","node":1,"from_s":2,"until_s":14}|} );
    ( Byzantine { node = 1; attack = Adversary.Bad_checkpoint; from_s = 2.0; until_s = 15.0 },
      {|{"kind":"bad_checkpoint","node":1,"from_s":2,"until_s":15}|} );
  ]

let test_spec_codec_golden () =
  List.iter
    (fun (spec, expected) ->
      let sc =
        {
          Scenario.seed = 1L;
          n = 4;
          rate = 100.0;
          num_clients = 4;
          duration_s = 5.0;
          faults = [ spec ];
          overload = None;
        }
      in
      (match Obs.Jsonx.member "faults" (Scenario.to_json sc) with
      | Some (Obs.Jsonx.List [ json ]) ->
          Alcotest.(check string) "exact encoding" expected (Obs.Jsonx.to_string json)
      | _ -> Alcotest.failf "%s: no single-entry faults list" expected);
      match Scenario.of_string (Scenario.to_string sc) with
      | Error e -> Alcotest.failf "%s does not decode: %s" expected e
      | Ok sc' -> check_bool (expected ^ " round-trips exactly") true (sc = sc'))
    golden_specs

(* The repro reader accepts what the writer emits, a bare scenario (every
   protocol) and a "fingerprints" object, and refuses an unknown protocol. *)
let test_repro_roundtrip () =
  let module J = Obs.Jsonx in
  let sc = Scenario.of_seed 3L in
  let f = { Harness.scenario = sc; protocol = Core.Config.HotStuff; message = "boom" } in
  (match Conform.Repro.of_json (Conform.Repro.to_json f) with
  | Error e -> Alcotest.failf "written repro does not decode: %s" e
  | Ok r ->
      check_bool "scenario round-trips" true (r.Conform.Repro.scenario = sc);
      check_bool "names its protocol" true (r.Conform.Repro.protocols = [ Core.Config.HotStuff ]);
      check_bool "pins nothing" true (Conform.Repro.pinned r Core.Config.HotStuff = None));
  (let file = Conform.Repro.save f ~dir:(Filename.get_temp_dir_name ()) in
   let loaded = Conform.Repro.load file in
   Sys.remove file;
   match loaded with
   | Error e -> Alcotest.failf "saved repro does not load: %s" e
   | Ok r ->
       check_bool "saved scenario loads back" true (r.Conform.Repro.scenario = sc);
       check_bool "saved protocol loads back" true
         (r.Conform.Repro.protocols = [ Core.Config.HotStuff ]));
  (match
     Conform.Repro.of_json
       (J.Obj
          [
            ("fingerprints", J.Obj [ ("PBFT", J.String "ab") ]);
            ("scenario", Scenario.to_json sc);
          ])
   with
  | Error e -> Alcotest.failf "bare scenario does not decode: %s" e
  | Ok r ->
      check_bool "bare scenario: every protocol" true
        (r.Conform.Repro.protocols = Harness.protocols);
      check_bool "PBFT pinned" true (Conform.Repro.pinned r Core.Config.PBFT = Some "ab");
      check_bool "Raft not pinned" true (Conform.Repro.pinned r Core.Config.Raft = None));
  match
    Conform.Repro.of_json
      (J.Obj [ ("scenario", Scenario.to_json sc); ("protocol", J.String "paxos") ])
  with
  | Error e -> Alcotest.(check string) "unknown protocol" {|unknown protocol "paxos"|} e
  | Ok _ -> Alcotest.fail "unknown protocol accepted"

let test_scenario_deterministic () =
  for k = 1 to 10 do
    let a = Scenario.of_seed (Int64.of_int k) and b = Scenario.of_seed (Int64.of_int k) in
    check_bool (Printf.sprintf "seed %d is a pure function" k) true (a = b)
  done

(* ------------------------------------------------------------------ *)
(* Checker unit tests against synthetic delivery streams *)

let req ~client ~ts =
  Proto.Request.make ~client ~ts ~submitted_at:Sim.Time_ns.zero ()

let batch reqs = Proto.Batch.make (Array.of_list reqs)

let new_checker ?(n = 2) ?(reply_quorum = 2) ?(window = 512) () =
  Checker.create ~n ~reply_quorum ~window

let submit ck reqs = List.iter (Checker.note_submitted ck) reqs

let expect_ok name ck =
  match Checker.finalize ck with
  | Ok stats -> stats
  | Error msg -> Alcotest.failf "%s: unexpected violation: %s" name msg

let expect_violation name needle ck =
  match Checker.finalize ck with
  | Ok _ -> Alcotest.failf "%s: expected a violation mentioning %S" name needle
  | Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check_bool
        (Printf.sprintf "%s: message %S mentions %S" name msg needle)
        true (contains msg needle)

let test_checker_clean_run () =
  let ck = new_checker () in
  let r = List.init 4 (fun ts -> req ~client:7 ~ts) in
  submit ck r;
  let b0 = batch [ List.nth r 0; List.nth r 1 ] and b1 = batch [ List.nth r 2; List.nth r 3 ] in
  for node = 0 to 1 do
    Checker.note_delivery ck ~node ~sn:0 ~first_request_sn:0 b0;
    Checker.note_delivery ck ~node ~sn:1 ~first_request_sn:2 b1
  done;
  let stats = expect_ok "clean" ck in
  check_int "distinct positions" 2 stats.Checker.sns;
  check_int "distinct requests" 4 stats.Checker.requests;
  check_int "quorate requests" 4 stats.Checker.quorum_requests;
  check_int "node 0 delivered" 4 stats.Checker.per_node_delivered.(0);
  check_int "node 1 delivered" 4 stats.Checker.per_node_delivered.(1)

let test_checker_accepts_keepalive_holes () =
  (* Positions 1-4 held ⊥ / empty keep-alive batches: never observed, zero
     requests — the Eq. (2) chain must pass straight through them. *)
  let ck = new_checker () in
  let r = List.init 3 (fun ts -> req ~client:7 ~ts) in
  submit ck r;
  let b0 = batch [ List.nth r 0; List.nth r 1 ] and b5 = batch [ List.nth r 2 ] in
  for node = 0 to 1 do
    Checker.note_delivery ck ~node ~sn:0 ~first_request_sn:0 b0;
    Checker.note_delivery ck ~node ~sn:5 ~first_request_sn:2 b5
  done;
  let stats = expect_ok "holes" ck in
  check_int "distinct positions" 2 stats.Checker.sns

let test_checker_rejects_disagreement () =
  let ck = new_checker ~reply_quorum:1 () in
  let a = req ~client:7 ~ts:0 and b = req ~client:8 ~ts:0 in
  submit ck [ a; b ];
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:0 (batch [ a; b ]);
  Checker.note_delivery ck ~node:1 ~sn:0 ~first_request_sn:0 (batch [ b; a ]);
  expect_violation "disagreement" "different batch" ck

let test_checker_rejects_double_ordering () =
  let ck = new_checker ~reply_quorum:1 () in
  let a = req ~client:7 ~ts:0 in
  submit ck [ a ];
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:0 (batch [ a ]);
  Checker.note_delivery ck ~node:0 ~sn:1 ~first_request_sn:1 (batch [ a ]);
  expect_violation "double ordering" "ordered at both" ck

let test_checker_rejects_fabrication () =
  let ck = new_checker ~reply_quorum:1 () in
  let a = req ~client:7 ~ts:0 in
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:0 (batch [ a ]);
  expect_violation "fabrication" "never submitted" ck

let test_checker_rejects_out_of_order () =
  let ck = new_checker ~reply_quorum:1 () in
  let a = req ~client:7 ~ts:0 and b = req ~client:7 ~ts:1 in
  submit ck [ a; b ];
  Checker.note_delivery ck ~node:0 ~sn:1 ~first_request_sn:0 (batch [ a ]);
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:1 (batch [ b ]);
  expect_violation "out of order" "out of order" ck

let test_checker_rejects_eq2_break () =
  let ck = new_checker ~reply_quorum:1 () in
  let a = req ~client:7 ~ts:0 and b = req ~client:7 ~ts:1 in
  submit ck [ a; b ];
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:0 (batch [ a ]);
  (* sn 1 claims to start numbering at 2, but only one request precedes it. *)
  Checker.note_delivery ck ~node:0 ~sn:2 ~first_request_sn:2 (batch [ b ]);
  expect_violation "Eq. 2 break" "Eq. 2" ck

let test_checker_rejects_lost_request () =
  let ck = new_checker ~reply_quorum:1 () in
  let a = req ~client:7 ~ts:0 and b = req ~client:7 ~ts:1 in
  submit ck [ a; b ];
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:0 (batch [ a ]);
  expect_violation "lost request" "never ordered" ck;
  expect_violation "lost request is listed" "client 7 ts 1 (submitted at t=0.000s)" ck

let test_checker_rejects_unquorate_position () =
  (* Ordered, but only one of the two nodes the reply quorum needs ever
     delivered the position: the client never gets its replies. *)
  let ck = new_checker ~reply_quorum:2 () in
  let a = req ~client:7 ~ts:0 in
  submit ck [ a ];
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:0 (batch [ a ]);
  expect_violation "unquorate position" "short of the quorum" ck

let test_checker_rejects_renumbering () =
  (* Same batch at the same position, numbered from different first request
     sequence numbers: the two logs diverge earlier.  Node 1 has no earlier
     delivery, so only the cross-node comparison can catch it. *)
  let ck = new_checker ~reply_quorum:1 () in
  let a = req ~client:7 ~ts:0 in
  submit ck [ a ];
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:0 (batch [ a ]);
  Checker.note_delivery ck ~node:1 ~sn:0 ~first_request_sn:5 (batch [ a ]);
  expect_violation "renumbering" "numbered sn 0" ck

let test_checker_rejects_delivered_then_shed () =
  let ck = new_checker ~reply_quorum:1 () in
  let a = req ~client:7 ~ts:0 in
  submit ck [ a ];
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:0 (batch [ a ]);
  Checker.note_shed ck ~node:0 a;
  expect_violation "delivered then shed" "already delivered" ck

let test_checker_exempts_byzantine () =
  (* Byzantine node 0 delivers a batch of its own at sn 0 first.  That is
     no violation, and it must not become the baseline the two correct
     nodes are compared against. *)
  let ck = new_checker ~n:3 ~reply_quorum:2 () in
  Checker.set_byzantine ck 0;
  let a = req ~client:7 ~ts:0 and forged = req ~client:9 ~ts:0 in
  submit ck [ a ];
  Checker.note_delivery ck ~node:0 ~sn:0 ~first_request_sn:0 (batch [ forged ]);
  Checker.note_delivery ck ~node:1 ~sn:0 ~first_request_sn:0 (batch [ a ]);
  Checker.note_delivery ck ~node:2 ~sn:0 ~first_request_sn:0 (batch [ a ]);
  let stats = expect_ok "Byzantine first delivery" ck in
  check_int "quorate requests" 1 stats.Checker.quorum_requests;
  check_int "Byzantine progress still counted" 1 stats.Checker.per_node_delivered.(0)

let test_checker_rejects_window_violation () =
  (* window = 4: ts 4 may only be ordered after ts 0 of the same client. *)
  let ck = new_checker ~n:1 ~reply_quorum:1 ~window:4 () in
  let r = List.init 5 (fun ts -> req ~client:7 ~ts) in
  submit ck r;
  let order = [ 4; 0; 1; 2; 3 ] in
  List.iteri
    (fun sn ts ->
      Checker.note_delivery ck ~node:0 ~sn ~first_request_sn:sn (batch [ List.nth r ts ]))
    order;
  expect_violation "window violation" "watermark window" ck

(* ------------------------------------------------------------------ *)
(* Shrinker *)

let test_shrink_candidates_valid () =
  for k = 1 to 10 do
    let sc = Scenario.of_seed (Int64.of_int k) in
    List.iter
      (fun c ->
        check_bool
          (Printf.sprintf "seed %d candidate validates" k)
          true
          (Result.is_ok (Scenario.validate c));
        check_bool (Printf.sprintf "seed %d candidate differs" k) true (c <> sc))
      (Shrink.candidates sc)
  done

let test_shrink_converges () =
  (* Synthetic failure predicate: the "bug" needs an offered load >= 100.
     The greedy descent must land on a local minimum that still fails and
     has shed everything irrelevant (faults, clients, duration). *)
  let sc = Scenario.of_seed 3L in
  check_bool "seed 3 starts above the threshold" true (sc.Scenario.rate >= 100.);
  let still_fails c = c.Scenario.rate >= 100. in
  let min_sc = Shrink.minimize sc ~still_fails in
  check_bool "minimum still fails" true (still_fails min_sc);
  check_bool "no candidate of the minimum still fails" true
    (not (List.exists still_fails (Shrink.candidates min_sc)));
  check_bool "irrelevant faults dropped" true (min_sc.Scenario.faults = []);
  check_int "client pool shrunk" 1 min_sc.Scenario.num_clients

(* ------------------------------------------------------------------ *)
(* End-to-end: fixed seed + committed regression corpus *)

let test_fixed_seed_pipeline () =
  (* Seed 9 draws a fault-free scenario: the cheapest full pass through all
     three protocols with instrumented/bare fingerprint equality. *)
  match Harness.check_seed 9L with
  | Ok () -> ()
  | Error f -> Alcotest.failf "seed 9: %s" (Format.asprintf "%a" Harness.pp_failure f)

let corpus_dir = "conform_corpus"

let corpus_files () =
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  else []

(* Committed behaviour fingerprints: an engine or network change that
   reorders even one event delivery shows up here as a mismatch.  Update the
   corpus file's "fingerprints" field only for an *intentional* behaviour
   change. *)
let replay_corpus_file file () =
  match Conform.Repro.load (Filename.concat corpus_dir file) with
  | Error e -> Alcotest.failf "%s: %s" file e
  | Ok repro ->
      let sc = repro.Conform.Repro.scenario in
      List.iter
        (fun p ->
          (match Harness.check_protocol sc p with
          | Ok () -> ()
          | Error f -> Alcotest.failf "%s regressed: %s" file (Harness.failure_message f));
          match Conform.Repro.pinned repro p with
          | None -> ()
          | Some expected -> (
              match Harness.run_protocol ~instrumented:false sc p with
              | Error e -> Alcotest.failf "%s: replay failed: %s" file e
              | Ok r ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s %s fingerprint pinned" file (Core.Config.protocol_name p))
                    expected r.Harness.fingerprint))
        repro.Conform.Repro.protocols

(* The tier-1 fixed seed's fingerprints, pinned as constants: the engine
   rebuild (timing wheel) was required to reproduce these bit-identically,
   and any future scheduling change must be equally intentional. *)
let seed9_fingerprints =
  [
    (Core.Config.PBFT, "b1f6bd24769c82d02af04afe3b08501af5aba30e2fcac52685f460128f481b21");
    (Core.Config.HotStuff, "ccca5137f04bea6e0b0e870b5e96ed1325c41ee2c5af51b0f174b8ff03c8bdb5");
    (Core.Config.Raft, "b1f6bd24769c82d02af04afe3b08501af5aba30e2fcac52685f460128f481b21");
  ]

let test_seed9_fingerprints_pinned () =
  let sc = Scenario.of_seed 9L in
  List.iter
    (fun (p, expected) ->
      match Harness.run_protocol ~instrumented:false sc p with
      | Error e -> Alcotest.failf "seed 9 %s: %s" (Core.Config.protocol_name p) e
      | Ok r ->
          Alcotest.(check string)
            (Printf.sprintf "seed 9 %s fingerprint" (Core.Config.protocol_name p))
            expected r.Harness.fingerprint)
    seed9_fingerprints

let test_corpus_not_empty () =
  check_bool "committed corpus has entries" true (corpus_files () <> [])

let () =
  Alcotest.run "conform"
    [
      ( "scenario",
        [
          Alcotest.test_case "json round-trip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "fault codec golden" `Quick test_spec_codec_golden;
          Alcotest.test_case "repro round-trip" `Quick test_repro_roundtrip;
        ] );
      ( "checker",
        [
          Alcotest.test_case "clean run" `Quick test_checker_clean_run;
          Alcotest.test_case "keep-alive holes are legal" `Quick
            test_checker_accepts_keepalive_holes;
          Alcotest.test_case "disagreement" `Quick test_checker_rejects_disagreement;
          Alcotest.test_case "double ordering" `Quick test_checker_rejects_double_ordering;
          Alcotest.test_case "fabrication" `Quick test_checker_rejects_fabrication;
          Alcotest.test_case "out of order" `Quick test_checker_rejects_out_of_order;
          Alcotest.test_case "Eq. 2 break" `Quick test_checker_rejects_eq2_break;
          Alcotest.test_case "lost request" `Quick test_checker_rejects_lost_request;
          Alcotest.test_case "unquorate position" `Quick test_checker_rejects_unquorate_position;
          Alcotest.test_case "renumbering" `Quick test_checker_rejects_renumbering;
          Alcotest.test_case "delivered then shed" `Quick
            test_checker_rejects_delivered_then_shed;
          Alcotest.test_case "Byzantine node exempt" `Quick test_checker_exempts_byzantine;
          Alcotest.test_case "window violation" `Quick test_checker_rejects_window_violation;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "candidates valid" `Quick test_shrink_candidates_valid;
          Alcotest.test_case "greedy descent converges" `Quick test_shrink_converges;
        ] );
      ( "end-to-end",
        Alcotest.test_case "fixed seed, all protocols" `Slow test_fixed_seed_pipeline
        :: Alcotest.test_case "fixed-seed fingerprints pinned" `Slow
             test_seed9_fingerprints_pinned
        :: Alcotest.test_case "corpus is committed" `Quick test_corpus_not_empty
        :: List.map
             (fun f -> Alcotest.test_case ("corpus " ^ f) `Slow (replay_corpus_file f))
             (corpus_files ()) );
    ]
