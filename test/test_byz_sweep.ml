(* Randomized Byzantine sweep (opt-in:  dune build @byzantine).

   Runs [Faults.random_byzantine] schedules over a range of seeds on both
   BFT instantiations, each under the full invariant checker: safety and
   exactly-once among correct nodes on every delivery, liveness (every
   request reaches its reply quorum) once the attack window has healed.
   Raft is exempt by construction — the fault model it implements is
   crash-recovery, and [Faults.validate] rejects these schedules for it. *)

module Time_ns = Sim.Time_ns
module Faults = Runner.Faults
module Cluster = Runner.Cluster

let seeds = 12
let duration_s = 30.0

let run_one ~protocol ~seed =
  let n = 4 in
  let sc = Faults.random_byzantine ~seed ~n ~duration_s in
  (match Faults.validate ~protocol sc ~n with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: invalid schedule: %s" (Faults.name sc) e));
  let cluster = Cluster.create ~tweak:Faults.fast ~system:(Cluster.Iss protocol) ~n ~seed () in
  Faults.apply sc cluster;
  Cluster.enable_invariants cluster;
  Cluster.start cluster;
  let until = Time_ns.of_sec_f duration_s in
  let run_until = Faults.checked_until sc (Cluster.config cluster) ~duration_s in
  Runner.Workload.start ~cluster ~rate:100.0 ~resubmit:true ~sweep_until:run_until ~until ();
  Sim.Engine.run ~until:run_until (Cluster.engine cluster);
  Cluster.check_liveness cluster;
  if Cluster.delivered_quorum cluster <> Cluster.submitted cluster then
    failwith
      (Printf.sprintf "%s: %d of %d requests never reached their reply quorum"
         (Faults.name sc)
         (Cluster.submitted cluster - Cluster.delivered_quorum cluster)
         (Cluster.submitted cluster))

let () =
  let failures = ref 0 in
  List.iter
    (fun protocol ->
      for s = 1 to seeds do
        let seed = Int64.of_int s in
        match run_one ~protocol ~seed with
        | () ->
            Printf.printf "ok   %-12s seed %Ld\n%!" (Core.Config.protocol_name protocol) seed
        | exception e ->
            incr failures;
            Printf.printf "FAIL %-12s seed %Ld: %s\n%!"
              (Core.Config.protocol_name protocol)
              seed (Printexc.to_string e)
      done)
    [ Core.Config.PBFT; Core.Config.HotStuff ];
  if !failures > 0 then begin
    Printf.printf "%d Byzantine sweep failures\n" !failures;
    exit 1
  end;
  print_endline "byzantine sweep: all seeds passed"
