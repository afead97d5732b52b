(* The conformance harness: run one fuzzed scenario against all three ISS
   instantiations, differentially check each run against the reference
   model, and assert determinism and instrumented-vs-bare bit-identity by
   re-running.

   Each (scenario, protocol) pair is simulated twice:

   - once fully instrumented (lifecycle tracer + metric registry + the
     cluster's online invariant checker), which also cross-checks the
     observability layer's own accounting against the conformance checker;
   - once bare (no tracer, no registry).

   The two runs must produce identical behaviour fingerprints: any
   divergence means either nondeterminism (e.g. an insertion-order-dependent
   tie-break) or instrumentation perturbing the simulation — both bugs. *)

module Time_ns = Sim.Time_ns
module Faults = Runner.Faults
module Cluster = Runner.Cluster
module J = Obs.Jsonx

let protocols = [ Core.Config.PBFT; Core.Config.HotStuff; Core.Config.Raft ]

type failure = {
  scenario : Scenario.t;
  protocol : Core.Config.protocol;
  message : string;
}

let failure_message f = f.message
let pp_failure fmt f =
  Format.fprintf fmt "[%s x %s] %s" (Scenario.name f.scenario)
    (Core.Config.protocol_name f.protocol) f.message

(* Overload scenarios flip flow control on with buckets small enough that
   conformance-scale rates actually shed.  The shed policy comes from the
   scenario's [drop_oldest] draw. *)
let overload_tweak (o : Scenario.overload) c =
  let drop_oldest =
    match o with
    | Scenario.Flash_crowd { drop_oldest; _ } | Scenario.Hot_bucket { drop_oldest; _ } ->
        drop_oldest
  in
  {
    c with
    Core.Config.flow_control = true;
    bucket_capacity = 16;
    shed_policy = (if drop_oldest then Core.Config.Drop_oldest else Core.Config.Reject_new);
    pushback_watermark = 0.75;
  }

(* The modeled client abandons a stalled request after this many re-sends in
   overload scenarios — the explicit give-up terminal state. *)
let overload_retry_budget = 4

let run_until_s (sc : Scenario.t) config =
  let heal = Faults.heal_s (Faults.make ~name:(Scenario.name sc) sc.Scenario.faults) in
  (* Give-ups need the sweeper to notice the stall (5 s) and then spend the
     retry budget at one re-send per 2 s sweep: extend overload runs so
     every shed request reaches a terminal state before liveness judges. *)
  let overload_grace = match sc.Scenario.overload with Some _ -> 10.0 | None -> 0.0 in
  Float.max
    (sc.Scenario.duration_s +. 15.0)
    (heal +. Faults.liveness_grace_s config +. sc.Scenario.duration_s)
  +. overload_grace

(* ------------------------------------------------------------------ *)
(* Observability self-consistency: the registry's own delivery accounting
   and the tracer's event structure must agree with what the conformance
   checker observed. *)

let metric_value ~name ?node snapshot =
  let node_matches node_field =
    match (node, node_field) with
    | None, None -> true
    | Some want, Some (J.Int got) -> want = got
    | _ -> false
  in
  match J.member "metrics" snapshot with
  | None -> None
  | Some (J.List entries) ->
      List.find_map
        (fun e ->
          match (J.member "name" e, J.member "node" e) with
          | Some (J.String n), node_field when n = name && node_matches node_field -> (
              match J.member "value" e with Some (J.Int v) -> Some v | _ -> None)
          | _ -> None)
        entries
  | Some _ -> None

let check_obs_consistency ~cluster ~registry ~tracer ~engine (stats : Checker.stats) =
  let snapshot = Obs.Registry.snapshot registry ~at:(Sim.Engine.now engine) in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
  (match metric_value ~name:"cluster.delivered_quorum" snapshot with
  | Some v ->
      if v <> stats.Checker.quorum_requests then
        fail "registry cluster.delivered_quorum=%d but the checker counted %d" v
          stats.Checker.quorum_requests
  | None -> fail "registry snapshot is missing cluster.delivered_quorum");
  (match metric_value ~name:"cluster.submitted" snapshot with
  | Some v ->
      if v <> Cluster.submitted cluster then
        fail "registry cluster.submitted=%d but the cluster counted %d" v
          (Cluster.submitted cluster)
  | None -> fail "registry snapshot is missing cluster.submitted");
  Array.iteri
    (fun node count ->
      match metric_value ~name:"node.delivered" ~node snapshot with
      | Some v ->
          if v <> count then
            fail "registry node.delivered=%d for node %d but the checker counted %d" v node
              count
      | None -> fail "registry snapshot is missing node.delivered for node %d" node)
    stats.Checker.per_node_delivered;
  (* Tracer: every reply event must belong to a request that was submitted
     first, with non-decreasing timestamps. *)
  let submit_at = Hashtbl.create 4096 in
  Obs.Tracer.iter tracer (fun ~req ~node:_ ~at phase ->
      match phase with
      | Obs.Tracer.Submit -> if not (Hashtbl.mem submit_at req) then Hashtbl.replace submit_at req at
      | Obs.Tracer.Reply -> (
          match Hashtbl.find_opt submit_at req with
          | None -> fail "tracer recorded a reply for request key %d with no submit event" req
          | Some t0 ->
              if at < t0 then
                fail "tracer recorded a reply before the submit for request key %d" req)
      | _ -> ());
  !err

(* ------------------------------------------------------------------ *)
(* One simulated run *)

type run_result = { fingerprint : string; stats : Checker.stats }

let run_protocol ?(instrumented = true) (sc : Scenario.t) protocol :
    (run_result, string) result =
  match Scenario.validate ~protocol sc with
  | Error e -> Error (Printf.sprintf "invalid scenario: %s" e)
  | Ok () -> (
      let engine = Sim.Engine.create () in
      let tracer =
        if instrumented then Some (Obs.Tracer.create ~sample:1 ~engine ()) else None
      in
      let registry = if instrumented then Some (Obs.Registry.create ()) else None in
      let tweak =
        match sc.Scenario.overload with
        | None -> Faults.fast
        | Some o -> fun c -> overload_tweak o (Faults.fast c)
      in
      let cluster =
        Cluster.create ~engine ?tracer ?registry ~tweak ~system:(Cluster.Iss protocol)
          ~n:sc.Scenario.n ~seed:sc.Scenario.seed ()
      in
      let config = Cluster.config cluster in
      let checker =
        Checker.create ~n:sc.Scenario.n ~reply_quorum:(Cluster.reply_quorum cluster)
          ~window:config.Core.Config.client_watermark_window
      in
      List.iter (Checker.set_byzantine checker) (Scenario.byzantine_nodes sc);
      Cluster.set_submission_observer cluster (Checker.note_submitted checker);
      Cluster.set_delivery_observer cluster (fun ~node ~sn ~first_request_sn batch ->
          Checker.note_delivery checker ~node ~sn ~first_request_sn batch);
      let shape, retry_budget =
        match sc.Scenario.overload with
        | None -> (Runner.Workload.Steady, None)
        | Some o ->
            (* The checker re-derives the shed / give-up conformance rules
               from its own observer feed, cross-validating the cluster's
               online delivered-then-shed check. *)
            Cluster.set_shed_observer cluster (fun ~node ~shed r ->
                if shed then Checker.note_shed checker ~node r);
            Cluster.set_give_up_observer cluster (Checker.note_gave_up checker);
            (match o with
             | Scenario.Flash_crowd { at_s; factor; len_s; _ } ->
                 Runner.Workload.Flash_crowd { at_s; factor; len_s }
             | Scenario.Hot_bucket { skew; _ } -> Runner.Workload.Hot_bucket { skew }),
            Some overload_retry_budget
      in
      let schedule = Faults.make ~name:(Scenario.name sc) sc.Scenario.faults in
      Faults.apply schedule cluster;
      Cluster.enable_invariants cluster;
      Cluster.start cluster;
      let run_until = Time_ns.of_sec_f (run_until_s sc config) in
      Runner.Workload.start ~cluster ~rate:sc.Scenario.rate
        ~num_clients:sc.Scenario.num_clients ~resubmit:true ~shape ?retry_budget
        ~shape_seed:sc.Scenario.seed ~sweep_until:run_until
        ~until:(Time_ns.of_sec_f sc.Scenario.duration_s) ();
      match
        Sim.Engine.run ~until:run_until engine;
        Cluster.check_liveness cluster
      with
      | exception Cluster.Invariant_violation report ->
          Error (Printf.sprintf "online invariant checker: %s" report)
      | () -> (
          match Checker.finalize checker with
          | Error msg -> Error msg
          | Ok stats -> (
              let fingerprint = Checker.fingerprint checker in
              match (registry, tracer) with
              | Some registry, Some tracer -> (
                  match check_obs_consistency ~cluster ~registry ~tracer ~engine stats with
                  | Some msg -> Error (Printf.sprintf "observability self-consistency: %s" msg)
                  | None -> Ok { fingerprint; stats })
              | _ -> Ok { fingerprint; stats })))

(* ------------------------------------------------------------------ *)
(* Full conformance for one scenario: all three ISS instantiations, each
   run instrumented and bare, with fingerprint equality across the pair. *)

let check_protocol (sc : Scenario.t) protocol : (unit, failure) result =
  match run_protocol ~instrumented:true sc protocol with
  | Error message -> Error { scenario = sc; protocol; message }
  | Ok instrumented -> (
      match run_protocol ~instrumented:false sc protocol with
      | Error message ->
          Error
            {
              scenario = sc;
              protocol;
              message = Printf.sprintf "bare re-run diverged: %s" message;
            }
      | Ok bare ->
          if String.equal instrumented.fingerprint bare.fingerprint then Ok ()
          else
            Error
              {
                scenario = sc;
                protocol;
                message =
                  Printf.sprintf
                    "nondeterminism: instrumented and bare runs differ (%s vs %s) — either \
                     an order-dependent tie-break or instrumentation perturbing the \
                     simulation"
                    instrumented.fingerprint bare.fingerprint;
              })

let check_scenario (sc : Scenario.t) : (unit, failure) result =
  let rec go = function
    | [] -> Ok ()
    | protocol :: rest -> (
        match check_protocol sc protocol with Ok () -> go rest | Error f -> Error f)
  in
  (* Active-malice scenarios only make sense under a Byzantine fault model:
     Raft (crash-fault-tolerant) is exempt, not broken. *)
  let applicable =
    if Scenario.has_byzantine sc then
      List.filter (fun p -> p <> Core.Config.Raft) protocols
    else protocols
  in
  go applicable

let check_seed seed = check_scenario (Scenario.of_seed seed)

(* ------------------------------------------------------------------ *)
(* Repro files *)

let repro_to_json (f : failure) =
  J.Obj
    [
      ("scenario", Scenario.to_json f.scenario);
      ("protocol", J.String (Core.Config.protocol_name f.protocol));
      ("message", J.String f.message);
    ]

let save_repro (f : failure) ~dir =
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-%s.json" (Scenario.name f.scenario)
         (String.lowercase_ascii (Core.Config.protocol_name f.protocol)))
  in
  let oc = open_out file in
  output_string oc (J.to_string (repro_to_json f));
  output_char oc '\n';
  close_out oc;
  file
