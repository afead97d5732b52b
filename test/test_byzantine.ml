(* Byzantine adversary harness (DESIGN.md §10): every active-malice attack
   paired with the defense that defeats it, on both BFT instantiations.

   Each attack scenario runs under the full cross-node invariant checker
   (safety + exactly-once among correct nodes on every delivery) and ends
   with the liveness check (every submitted request reached its reply
   quorum of correct nodes) — so each test asserts that the attack neither
   breaks safety nor permanently costs throughput.  On top of that:

   - equivocation, censorship and signature corruption must get the
     attacker removed from the leader set within two epochs of the attack
     window opening (the leader policy turning local damage into the
     log-derived ⊥ / straggler evidence of §3.4);
   - replay and bad-checkpoint are absorbed attacks: the ingress defenses
     (watermark dedup, reply cache, vote keying, checkpoint quorum
     matching) neutralize them without generating any ⊥ evidence, so the
     attacker must NOT be banned — a false accusation would be its own bug;
   - an adversary proxy that is constructed but never armed must leave the
     run bit-identical to a bare cluster (zero perturbation).

   The randomized sweep over seeds lives in test_byz_sweep.ml behind the
   [byzantine] alias. *)

module Time_ns = Sim.Time_ns
module Faults = Runner.Faults
module Adversary = Runner.Adversary
module Cluster = Runner.Cluster

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every byz-* scenario attacks node 1 (see Faults.named). *)
let attacker = 1

type probe = {
  mutable epoch_at_attack : int;  (* node 0's epoch when the window opened *)
  mutable first_banned_epoch : int;  (* first epoch observed without the attacker *)
  mutable banned_at_end : bool;
}

let run_byz ?policy ?(rate = 100.0) ~protocol name =
  let n = 4 in
  match Faults.named ~n name with
  | Error e -> Alcotest.failf "named %s: %s" name e
  | Ok sc ->
      let cluster =
        Cluster.create ?policy ~tweak:Faults.fast ~system:(Cluster.Iss protocol) ~n ~seed:7L ()
      in
      (match Faults.validate ~protocol sc ~n with
      | Ok () -> ()
      | Error e -> Alcotest.failf "scenario %s: %s" name e);
      Faults.apply sc cluster;
      Cluster.enable_invariants cluster;
      Cluster.start cluster;
      let engine = Cluster.engine cluster in
      let until = Time_ns.of_sec_f 30.0 in
      let run_until = Faults.checked_until sc (Cluster.config cluster) ~duration_s:30.0 in
      (* Sample node 0's leader set through the run: read-only, so it cannot
         perturb the protocol. *)
      let probe = { epoch_at_attack = -1; first_banned_epoch = -1; banned_at_end = false } in
      let observer = (Cluster.nodes cluster).(0) in
      let leads_now () =
        Array.exists (fun l -> l = attacker) (Core.Node.epoch_leaders observer)
      in
      let rec sample () =
        let epoch = Core.Node.current_epoch observer in
        if probe.epoch_at_attack < 0 && Sim.Engine.now engine >= Time_ns.of_sec_f 2.0 then
          probe.epoch_at_attack <- epoch;
        if probe.first_banned_epoch < 0 && not (leads_now ()) then
          probe.first_banned_epoch <- epoch;
        if Sim.Engine.now engine < run_until then
          ignore (Sim.Engine.schedule engine ~delay:(Time_ns.ms 250) sample)
      in
      ignore (Sim.Engine.schedule engine ~delay:(Time_ns.ms 250) sample);
      Runner.Workload.start ~cluster ~rate ~resubmit:true ~sweep_until:run_until ~until ();
      Sim.Engine.run ~until:run_until engine;
      probe.banned_at_end <- not (leads_now ());
      (* Raises Invariant_violation with a readable report on any safety or
         liveness break among the correct nodes. *)
      Cluster.check_liveness cluster;
      check_bool "workload submitted requests" true (Cluster.submitted cluster > 0);
      check_int "throughput recovered: every request reached its reply quorum"
        (Cluster.submitted cluster) (Cluster.delivered_quorum cluster);
      (cluster, probe)

let assert_blacklisted (probe : probe) =
  check_bool "attacker was removed from the leader set" true (probe.first_banned_epoch >= 0);
  if probe.first_banned_epoch > probe.epoch_at_attack + 2 then
    Alcotest.failf "attacker banned only at epoch %d, attack opened at epoch %d"
      probe.first_banned_epoch probe.epoch_at_attack;
  check_bool "attacker still banned at the end of the run" true probe.banned_at_end

let assert_absorbed (probe : probe) =
  (* The defense neutralized the attack without ⊥ evidence: banning the
     attacker here would be a false accusation. *)
  check_bool "absorbed attack produced no ban" false probe.banned_at_end

(* ------------------------------------------------------------------ *)
(* One test per attack, per BFT protocol *)

let test_equivocate protocol () =
  let _, probe = run_byz ~protocol "byz-equivocate" in
  assert_blacklisted probe

let test_censor protocol () =
  (* A censoring leader's batches still commit (empty), so there is no ⊥
     evidence; the STRAGGLER-AWARE policy reads the damage off the log
     instead (a leader shipping almost nothing while the busiest leaders
     ship full batches).  The high rate keeps the busiest leaders above the
     policy's load floor. *)
  let _, probe =
    run_byz ~policy:Core.Config.Straggler_aware ~rate:400.0 ~protocol "byz-censor"
  in
  assert_blacklisted probe

let test_corrupt_sig protocol () =
  let cluster, probe = run_byz ~protocol "byz-corrupt-sig" in
  assert_blacklisted probe;
  (* The garbled messages were dropped at ingress, and counted. *)
  let drops =
    Array.fold_left
      (fun acc node ->
        acc + if Core.Node.id node = attacker then 0 else Core.Node.auth_failures node)
      0 (Cluster.nodes cluster)
  in
  check_bool "correct nodes rejected unverifiable messages at ingress" true (drops > 0)

let test_replay protocol () =
  let _, probe = run_byz ~protocol "byz-replay" in
  assert_absorbed probe

let test_bad_checkpoint protocol () =
  let cluster, probe = run_byz ~protocol "byz-bad-checkpoint" in
  assert_absorbed probe;
  (* The scenario crash-recovers node 3 inside the attack window: it must
     have state-transferred to the cluster epoch despite the attacker
     serving poisoned checkpoint certificates. *)
  let nodes = Cluster.nodes cluster in
  check_bool "recovering node is back up" false (Core.Node.is_halted nodes.(3));
  check_bool "recovering node delivered requests" true
    (Core.Node.delivered_count nodes.(3) > 0);
  let max_epoch =
    Array.fold_left (fun acc nd -> max acc (Core.Node.current_epoch nd)) 0 nodes
  in
  check_bool "recovering node caught up to the cluster epoch" true
    (Core.Node.current_epoch nodes.(3) >= max_epoch - 1)

(* ------------------------------------------------------------------ *)
(* Zero perturbation: an adversary proxy that exists but never arms an
   attack must not change a single delivery. *)

let log_fingerprint cluster =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun node ->
      Buffer.add_string buf
        (Printf.sprintf "n%d(%d):" (Core.Node.id node) (Core.Node.delivered_count node));
      let log = Core.Node.log node in
      let sn = ref (Core.Log.pruned_below log) in
      let continue_ = ref true in
      while !continue_ do
        match Core.Log.get log ~sn:!sn with
        | None -> continue_ := false
        | Some p ->
            Buffer.add_string buf (Iss_crypto.Hash.short (Proto.Proposal.digest p));
            incr sn
      done;
      Buffer.add_char buf '\n')
    (Cluster.nodes cluster);
  Buffer.contents buf

let test_zero_perturbation () =
  let run ~armed =
    let cluster =
      Cluster.create ~tweak:Faults.fast ~system:(Cluster.Iss Core.Config.PBFT) ~n:4 ~seed:5L ()
    in
    if armed then ignore (Cluster.ensure_adversary cluster);
    Cluster.start cluster;
    let until = Time_ns.of_sec_f 20.0 in
    Runner.Workload.start ~cluster ~rate:100.0 ~until ();
    Sim.Engine.run ~until (Cluster.engine cluster);
    (log_fingerprint cluster, Cluster.delivered_quorum cluster)
  in
  let bare_log, bare_count = run ~armed:false in
  let proxied_log, proxied_count = run ~armed:true in
  check_int "same quorum deliveries" bare_count proxied_count;
  Alcotest.(check string) "bit-identical delivered logs" bare_log proxied_log

(* ------------------------------------------------------------------ *)
(* Validation of Byzantine schedules *)

let test_validate_byzantine () =
  let eq =
    [ Faults.Byzantine { node = 1; attack = Adversary.Equivocate; from_s = 2.0; until_s = 10.0 } ]
  in
  (* Accepted for the BFT protocols, with and without a protocol hint... *)
  List.iter
    (fun protocol ->
      match Faults.validate ?protocol (Faults.make ~name:"byz" eq) ~n:4 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rejected a valid Byzantine schedule: %s" e)
    [ None; Some Core.Config.PBFT; Some Core.Config.HotStuff ];
  (* ...rejected for Raft... *)
  (match Faults.validate ~protocol:Core.Config.Raft (Faults.make ~name:"byz" eq) ~n:4 with
  | Ok () -> Alcotest.fail "validate accepted a Byzantine schedule for Raft"
  | Error _ -> ());
  (* ...rejected when more than f nodes are Byzantine at once (n=4, f=1)... *)
  (match
     Faults.validate
       (Faults.make ~name:"byz2"
          [
            Faults.Byzantine
              { node = 1; attack = Adversary.Equivocate; from_s = 2.0; until_s = 10.0 };
            Faults.Byzantine
              { node = 2; attack = Adversary.Corrupt_sig; from_s = 5.0; until_s = 12.0 };
          ])
       ~n:4
   with
  | Ok () -> Alcotest.fail "validate accepted 2 concurrent Byzantine nodes at f=1"
  | Error _ -> ());
  (* ...but sequential windows on different nodes stay within the bound... *)
  (match
     Faults.validate
       (Faults.make ~name:"byz-seq"
          [
            Faults.Byzantine
              { node = 1; attack = Adversary.Equivocate; from_s = 2.0; until_s = 8.0 };
            Faults.Byzantine
              { node = 2; attack = Adversary.Corrupt_sig; from_s = 9.0; until_s = 14.0 };
          ])
       ~n:4
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected sequential Byzantine windows: %s" e);
  (* ...and overlapping windows on the same node only warn. *)
  let warnings = ref [] in
  (match
     Faults.validate
       ~warn:(fun w -> warnings := w :: !warnings)
       (Faults.make ~name:"byz-overlap"
          [
            Faults.Byzantine
              { node = 1; attack = Adversary.Equivocate; from_s = 2.0; until_s = 10.0 };
            Faults.Byzantine { node = 1; attack = Adversary.Replay; from_s = 8.0; until_s = 14.0 };
          ])
       ~n:4
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected same-node overlap (should only warn): %s" e);
  check_bool "same-node overlap produced a warning" true (!warnings <> [])

let test_random_byzantine_deterministic () =
  let show sc = Format.asprintf "%a" Faults.pp sc in
  let a = Faults.random_byzantine ~seed:42L ~n:4 ~duration_s:30.0 in
  let b = Faults.random_byzantine ~seed:42L ~n:4 ~duration_s:30.0 in
  Alcotest.(check string) "same seed, same schedule" (show a) (show b);
  check_bool "random schedule validates for PBFT" true
    (Faults.validate ~protocol:Core.Config.PBFT a ~n:4 = Ok ());
  check_bool "random schedule is Byzantine" true (Faults.has_byzantine a)

(* ------------------------------------------------------------------ *)

let () =
  let both name case =
    [
      Alcotest.test_case "iss-pbft" `Slow (case Core.Config.PBFT);
      Alcotest.test_case "iss-hotstuff" `Slow (case Core.Config.HotStuff);
    ]
    |> fun cases -> (name, cases)
  in
  Alcotest.run "byzantine"
    [
      ( "dsl",
        [
          Alcotest.test_case "validate enforces the Byzantine fault model" `Quick
            test_validate_byzantine;
          Alcotest.test_case "random Byzantine schedules are deterministic" `Quick
            test_random_byzantine_deterministic;
        ] );
      both "equivocate" test_equivocate;
      both "censor" test_censor;
      both "corrupt-sig" test_corrupt_sig;
      both "replay" test_replay;
      both "bad-checkpoint" test_bad_checkpoint;
      ( "zero-perturbation",
        [
          Alcotest.test_case "unarmed proxy leaves the run bit-identical" `Quick
            test_zero_perturbation;
        ] );
    ]
