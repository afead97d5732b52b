(* Protocol-level tests: drive PBFT / HotStuff / Raft orderer instances
   directly through a mock Orderer_intf context — no ISS node, no real
   network — to exercise view changes, QC chains and elections in
   isolation. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type world = {
  engine : Sim.Engine.t;
  n : int;
  instances : Core.Orderer_intf.instance option array;
  announced : (int * (int * Proto.Proposal.t)) list ref;  (* (node, (sn, proposal)) *)
  crashed : bool array;
  deaf : bool array;  (* inbound messages dropped; sends still go out *)
  fill_requests : int array;  (* FILL requests sent, per sender *)
  batch_source : int -> Proto.Proposal.t;  (* per sequence number *)
  mutable batch_delay : int -> Sim.Time_ns.span;  (* per sequence number *)
}

let is_fill_request = function
  | Proto.Message.Pbft { Proto.Pbft_msg.body = Proto.Pbft_msg.Fill_request _; _ }
  | Proto.Message.Hotstuff { Proto.Hotstuff_msg.body = Proto.Hotstuff_msg.Fill_request _; _ } ->
      true
  | _ -> false

let empty_world ~n ~batch_source =
  {
    engine = Sim.Engine.create ();
    n;
    instances = Array.make n None;
    announced = ref [];
    crashed = Array.make n false;
    deaf = Array.make n false;
    fill_requests = Array.make n 0;
    batch_source;
    batch_delay = (fun _ -> Sim.Time_ns.ms 1);
  }

(* A tiny message bus: ctx.send schedules the peer's on_message after a
   fixed delay, unless either end is "crashed" or the receiver is deaf. *)
let mock_ctx w ~config me : Core.Orderer_intf.ctx =
  let delay = Sim.Time_ns.ms 20 in
  let send ~dst msg =
    if (not w.crashed.(me)) && not w.crashed.(dst) then begin
      if is_fill_request msg then w.fill_requests.(me) <- w.fill_requests.(me) + 1;
      Sim.Engine.post w.engine ~delay (fun () ->
          if not (w.crashed.(dst) || w.deaf.(dst)) then
            match w.instances.(dst) with
            | Some inst -> inst.Core.Orderer_intf.on_message ~src:me msg
            | None -> ())
    end
  in
  {
    Core.Orderer_intf.node = me;
    config;
    clock = Core.Orderer_intf.Clock.of_engine w.engine;
    send;
    broadcast =
      (fun msg ->
        for dst = 0 to w.n - 1 do
          send ~dst msg
        done);
    announce = (fun ~sn proposal -> w.announced := (me, (sn, proposal)) :: !(w.announced));
    request_batch =
      (fun ~sn callback ->
        (* Immediate batches by default: protocol pacing is not under test
           here. *)
        Sim.Engine.post w.engine ~delay:(w.batch_delay sn) (fun () ->
            if not w.crashed.(me) then callback (w.batch_source sn)));
    charge_cpu = (fun _cost k -> k ());
    keypair = Iss_crypto.Signature.genkey ~id:me;
    threshold_group = Iss_crypto.Threshold.setup ~n:w.n ~t:(Proto.Ids.quorum ~n:w.n);
    validate_proposal = (fun _seg ~sn:_ _proposal -> Core.Orderer_intf.Accept);
  }

let make_world ~n ~config ~segment ~factory ~batch_source =
  let w = empty_world ~n ~batch_source in
  for me = 0 to n - 1 do
    w.instances.(me) <- Some (factory (mock_ctx w ~config me) segment)
  done;
  w

let start_all w =
  Array.iter (function Some i -> i.Core.Orderer_intf.start () | None -> ()) w.instances

let announced_at w node =
  List.rev
    (List.filter_map (fun (i, x) -> if i = node then Some x else None) !(w.announced))

let batch_for sn =
  Proto.Proposal.Batch
    (Proto.Batch.make [| Proto.Request.make ~client:1 ~ts:sn ~submitted_at:0 () |])

let segment4 ~leader =
  let config = Core.Config.pbft_default ~n:4 in
  List.nth
    (Core.Segment.make_epoch ~config ~epoch:0 ~start_sn:0
       ~leaders:(Array.init 4 (fun i -> i)))
    leader

(* Shared assertions: every correct node announces every segment sequence
   number exactly once, and all correct nodes agree per sequence number. *)
let assert_sb_complete w (seg : Core.Segment.t) ~expect_nil =
  let expected = Array.to_list seg.Core.Segment.seq_nrs in
  for node = 0 to w.n - 1 do
    if not w.crashed.(node) then begin
      let anns = announced_at w node in
      let sns = List.sort compare (List.map fst anns) in
      Alcotest.(check (list int))
        (Printf.sprintf "node %d announces every sn exactly once" node)
        (List.sort compare expected) sns;
      List.iter
        (fun (sn, p) ->
          if expect_nil then
            check_bool
              (Printf.sprintf "sn %d is ⊥" sn)
              true (Proto.Proposal.is_nil p))
        anns
    end
  done;
  (* Agreement across correct nodes. *)
  let digest_of anns =
    List.sort compare
      (List.map (fun (sn, p) -> (sn, Iss_crypto.Hash.to_hex (Proto.Proposal.digest p))) anns)
  in
  let reference = ref None in
  for node = 0 to w.n - 1 do
    if not w.crashed.(node) then begin
      let d = digest_of (announced_at w node) in
      match !reference with
      | None -> reference := Some d
      | Some r -> check_bool (Printf.sprintf "node %d agrees" node) true (d = r)
    end
  done

(* ------------------------------------------------------------------ *)
(* Happy paths for all three protocols *)

let test_happy_path factory () =
  let config = Core.Config.pbft_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w = make_world ~n:4 ~config ~segment:seg ~factory ~batch_source:batch_for in
  start_all w;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 30) w.engine;
  assert_sb_complete w seg ~expect_nil:false

(* ------------------------------------------------------------------ *)
(* Leader failure: SB termination demands ⊥ for unproposed positions *)

let test_dead_leader factory () =
  let config = Core.Config.pbft_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w = make_world ~n:4 ~config ~segment:seg ~factory ~batch_source:batch_for in
  w.crashed.(0) <- true;  (* the segment leader never says anything *)
  start_all w;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 300) w.engine;
  (* Exclude node 0 from the checks (it is crashed). *)
  assert_sb_complete w seg ~expect_nil:true

let test_leader_dies_mid_segment factory () =
  let config = Core.Config.pbft_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w = make_world ~n:4 ~config ~segment:seg ~factory ~batch_source:batch_for in
  start_all w;
  (* Let a few proposals through, then kill the leader. *)
  ignore
    (Sim.Engine.schedule w.engine ~delay:(Sim.Time_ns.ms 500) (fun () ->
         w.crashed.(0) <- true));
  Sim.Engine.run ~until:(Sim.Time_ns.sec 300) w.engine;
  (* Correct nodes terminate (mixture of real batches and ⊥) and agree. *)
  assert_sb_complete w seg ~expect_nil:false

(* ------------------------------------------------------------------ *)
(* PBFT specifics *)

let test_pbft_commit_quorum_needed () =
  (* With only 2 of 4 nodes alive, PBFT cannot commit anything. *)
  let config = Core.Config.pbft_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w =
    make_world ~n:4 ~config ~segment:seg ~factory:Pbft.Pbft_orderer.factory
      ~batch_source:batch_for
  in
  w.crashed.(2) <- true;
  w.crashed.(3) <- true;
  start_all w;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 60) w.engine;
  check_int "no announcements without a quorum" 0 (List.length (announced_at w 0))

(* ------------------------------------------------------------------ *)
(* Raft specifics *)

let test_raft_commit_majority () =
  (* Raft (CFT) tolerates 1 of 4 crashed followers and still commits. *)
  let config = Core.Config.raft_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w =
    make_world ~n:4 ~config ~segment:seg ~factory:Raft.Raft_orderer.factory
      ~batch_source:batch_for
  in
  w.crashed.(3) <- true;
  start_all w;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 60) w.engine;
  let anns = announced_at w 0 in
  check_int "leader announces everything with a majority"
    (Core.Segment.seq_count seg) (List.length anns)

let test_raft_election_after_leader_crash () =
  let config = Core.Config.raft_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w =
    make_world ~n:4 ~config ~segment:seg ~factory:Raft.Raft_orderer.factory
      ~batch_source:batch_for
  in
  w.crashed.(0) <- true;
  start_all w;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 600) w.engine;
  (* A new leader is elected and fills the segment with ⊥ (design
     principle 2). *)
  assert_sb_complete w seg ~expect_nil:true

(* ------------------------------------------------------------------ *)
(* HotStuff specifics *)

let test_hotstuff_three_chain_flush () =
  (* The last real sequence number must be decided even though nothing
     follows it — the three dummy views flush the pipeline (Fig. 4). *)
  let config = Core.Config.hotstuff_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w =
    make_world ~n:4 ~config ~segment:seg ~factory:Hotstuff.Hotstuff_orderer.factory
      ~batch_source:batch_for
  in
  start_all w;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 60) w.engine;
  let anns = announced_at w 1 in
  let last_sn = seg.Core.Segment.seq_nrs.(Core.Segment.seq_count seg - 1) in
  check_bool "last sn decided (pipeline flushed)" true (List.mem_assoc last_sn anns)

(* ------------------------------------------------------------------ *)
(* The shared SB-instance runtime: FILL slot recovery and timers *)

module Rt = Core.Orderer_intf.Runtime
module Timer = Core.Orderer_intf.Timer

let pbft_fill (seg : Core.Segment.t) ~sn proposal =
  Proto.Message.Pbft
    {
      Proto.Pbft_msg.instance = seg.Core.Segment.instance;
      body = Proto.Pbft_msg.Fill { sn; view = 0; proposal };
    }

let hotstuff_fill (seg : Core.Segment.t) ~sn proposal =
  Proto.Message.Hotstuff
    {
      Proto.Hotstuff_msg.instance = seg.Core.Segment.instance;
      body = Proto.Hotstuff_msg.Fill { sn; proposal };
    }

(* Replica 3 hears nothing while its peers decide the whole segment; once
   its inbound link heals only slot recovery can bring it up to date: its
   peers are done and no longer join view changes or pacemaker rotations. *)
let test_fill_recovers_deaf_replica factory () =
  let config = Core.Config.pbft_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w = make_world ~n:4 ~config ~segment:seg ~factory ~batch_source:batch_for in
  w.deaf.(3) <- true;
  start_all w;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 60) w.engine;
  for node = 0 to 2 do
    check_int
      (Printf.sprintf "peer %d decided the segment" node)
      (Core.Segment.seq_count seg)
      (List.length (announced_at w node))
  done;
  check_int "the deaf replica decided nothing" 0 (List.length (announced_at w 3));
  check_bool "the deaf replica asked for FILLs" true (w.fill_requests.(3) > 0);
  w.deaf.(3) <- false;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 200) w.engine;
  assert_sb_complete w seg ~expect_nil:false

(* n = 7, f = 2.  Two peers answer a forged value (f matching answers) and
   one of them repeats itself; none of that may be adopted.  The true value
   is adopted exactly when its (f+1)-th distinct answer arrives. *)
let test_fill_needs_f_plus_1 factory fill () =
  let n = 7 in
  let config = Core.Config.pbft_default ~n in
  let seg =
    List.hd
      (Core.Segment.make_epoch ~config ~epoch:0 ~start_sn:0 ~leaders:(Array.init n (fun i -> i)))
  in
  let w = make_world ~n ~config ~segment:seg ~factory ~batch_source:batch_for in
  let me = 6 in
  let inst = Option.get w.instances.(me) in
  inst.Core.Orderer_intf.start ();
  let sn = seg.Core.Segment.seq_nrs.(0) in
  let real = batch_for sn and forged = batch_for (sn + 1000) in
  let answer ~src p = inst.Core.Orderer_intf.on_message ~src (fill seg ~sn p) in
  answer ~src:1 forged;
  answer ~src:2 forged;
  answer ~src:2 forged;
  answer ~src:3 real;
  answer ~src:4 real;
  check_int "f matching answers are not adopted" 0 (List.length (announced_at w me));
  answer ~src:5 real;
  answer ~src:0 real;
  match announced_at w me with
  | [ (sn', p) ] ->
      check_int "adopted sn" sn sn';
      check_bool "adopted the value f+1 peers agree on" true
        (Iss_crypto.Hash.equal (Proto.Proposal.digest p) (Proto.Proposal.digest real))
  | anns -> Alcotest.failf "expected one adoption, got %d announcements" (List.length anns)

(* The leader proposes one batch per second, so the segment takes far
   longer than the 10 s recovery period, but no replica ever goes a whole
   period without announcing: the progress gate keeps FILL quiet. *)
let test_fill_quiet_while_announcing factory ~batch_delay () =
  let config = Core.Config.pbft_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w = make_world ~n:4 ~config ~segment:seg ~factory ~batch_source:batch_for in
  w.batch_delay <- batch_delay;
  start_all w;
  Sim.Engine.run ~until:(Sim.Time_ns.sec 30) w.engine;
  let so_far = List.length (announced_at w 1) in
  check_bool "still deciding after three recovery periods" true
    (so_far > 0 && so_far < Core.Segment.seq_count seg);
  Sim.Engine.run ~until:(Sim.Time_ns.sec 300) w.engine;
  assert_sb_complete w seg ~expect_nil:false;
  Array.iteri
    (fun node sent -> check_int (Printf.sprintf "node %d sent no FILL request" node) 0 sent)
    w.fill_requests

let test_runtime_timer () =
  let config = Core.Config.pbft_default ~n:4 in
  let w = empty_world ~n:4 ~batch_source:batch_for in
  let rt = Rt.create (mock_ctx w ~config 0) (segment4 ~leader:0) in
  let timer = Rt.timer rt in
  let fired = ref [] in
  let fire tag () = fired := (tag, Sim.Engine.now w.engine) :: !fired in
  Rt.start rt;
  Timer.arm timer ~delay:(Sim.Time_ns.ms 10) (fire "first");
  Timer.arm timer ~delay:(Sim.Time_ns.ms 20) (fire "re-armed");
  check_bool "armed" true (Timer.armed timer);
  Sim.Engine.run ~until:(Sim.Time_ns.sec 1) w.engine;
  Alcotest.(check (list (pair string int)))
    "re-arming cancels the pending fire" [ ("re-armed", Sim.Time_ns.ms 20) ] !fired;
  check_bool "disarmed after firing" false (Timer.armed timer);
  Timer.arm timer ~delay:(Sim.Time_ns.ms 10) (fire "after stop");
  Rt.stop rt;
  check_bool "stop disarms" false (Timer.armed timer);
  Sim.Engine.run ~until:(Sim.Time_ns.sec 2) w.engine;
  check_int "nothing fires after stop" 1 (List.length !fired)

(* A peer naming sequence numbers outside the segment gets no vote state
   allocated for them: PREPARE, COMMIT and FILL for such sns are dropped
   before any slot exists, so a faulty node cannot grow the instance. *)
let test_pbft_ignores_out_of_segment_sns () =
  let config = Core.Config.pbft_default ~n:4 in
  let seg = segment4 ~leader:0 in
  let w =
    make_world ~n:4 ~config ~segment:seg ~factory:Pbft.Pbft_orderer.factory
      ~batch_source:batch_for
  in
  let inst = Option.get w.instances.(1) in
  inst.Core.Orderer_intf.start ();
  let count = 10_000 in
  let digest = Iss_crypto.Hash.of_int 7 in
  let sn i = 1_000_000 + i in
  check_bool "sns lie outside the segment" false (Core.Segment.contains_sn seg (sn 0));
  let words_per_msg body =
    let msgs =
      Array.init count (fun i ->
          Proto.Message.Pbft
            { Proto.Pbft_msg.instance = seg.Core.Segment.instance; body = body (sn i) })
    in
    let before = Gc.minor_words () in
    Array.iter (fun msg -> inst.Core.Orderer_intf.on_message ~src:2 msg) msgs;
    (Gc.minor_words () -. before) /. float_of_int count
  in
  List.iter
    (fun (what, body) ->
      let words = words_per_msg body in
      if words >= 1.0 then
        Alcotest.failf "%s allocates %.1f words per out-of-segment sn" what words)
    [
      ("PREPARE", fun sn -> Proto.Pbft_msg.Prepare { view = 0; sn; digest });
      ("COMMIT", fun sn -> Proto.Pbft_msg.Commit { view = 0; sn; digest });
      ("FILL", fun sn -> Proto.Pbft_msg.Fill { sn; view = 0; proposal = batch_for sn });
    ];
  check_int "nothing announced" 0 (List.length (announced_at w 1))

(* [Pbft.Votes] against the table it replaced: a [(view, node) -> digest]
   map where a peer's first vote per view sticks ([add]) and a replica's own
   vote may be overwritten ([set]), with quorum counts taken by a full
   recount.  Out-of-range node ids must be ignored. *)
let prop_pbft_votes_match_recount =
  let n = 4 in
  let digests = Array.init 3 Iss_crypto.Hash.of_int in
  let op =
    QCheck.(
      quad bool (int_range 0 2) (int_range (-1) n) (int_range 0 (Array.length digests - 1)))
  in
  QCheck.Test.make ~name:"votes count = recount of the (view, node) table" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 60) op)
    (fun ops ->
      let votes = Pbft.Votes.create ~n in
      let model = ref [] in
      let in_range node = node >= 0 && node < n in
      let recount view d =
        List.length
          (List.filter
             (fun ((v, _), d') -> v = view && Iss_crypto.Hash.equal d d')
             !model)
      in
      List.for_all
        (fun (own, view, node, di) ->
          let d = digests.(di) in
          let step_ok =
            if own then begin
              Pbft.Votes.set votes ~view ~node d;
              if in_range node then
                model := ((view, node), d) :: List.remove_assoc (view, node) !model;
              true
            end
            else begin
              let fresh = in_range node && not (List.mem_assoc (view, node) !model) in
              if fresh then model := ((view, node), d) :: !model;
              Pbft.Votes.add votes ~view ~node d = fresh
            end
          in
          step_ok
          && List.for_all
               (fun view ->
                 Array.for_all
                   (fun d -> Pbft.Votes.count votes ~view d = recount view d)
                   digests)
               [ 0; 1; 2; 3 (* no vote is ever cast in view 3 *) ])
        ops)

let () =
  let factories =
    [
      ("pbft", Pbft.Pbft_orderer.factory);
      ("hotstuff", Hotstuff.Hotstuff_orderer.factory);
      ("raft", Raft.Raft_orderer.factory);
    ]
  in
  Alcotest.run "protocols"
    [
      ( "happy-path",
        List.map
          (fun (name, f) -> Alcotest.test_case name `Quick (test_happy_path f))
          factories );
      ( "dead-leader",
        List.map
          (fun (name, f) -> Alcotest.test_case name `Slow (test_dead_leader f))
          factories );
      ( "mid-segment-crash",
        List.map
          (fun (name, f) -> Alcotest.test_case name `Slow (test_leader_dies_mid_segment f))
          factories );
      ( "pbft",
        [
          Alcotest.test_case "no commit without quorum" `Quick test_pbft_commit_quorum_needed;
          Alcotest.test_case "out-of-segment sns allocate nothing" `Quick
            test_pbft_ignores_out_of_segment_sns;
          QCheck_alcotest.to_alcotest prop_pbft_votes_match_recount;
        ] );
      ( "raft",
        [
          Alcotest.test_case "commits with majority" `Quick test_raft_commit_majority;
          Alcotest.test_case "election after leader crash" `Slow
            test_raft_election_after_leader_crash;
        ] );
      ( "hotstuff",
        [ Alcotest.test_case "three-chain flush" `Quick test_hotstuff_three_chain_flush ] );
      ( "fill",
        List.concat_map
          (fun (name, factory, fill, batch_delay) ->
            [
              Alcotest.test_case (name ^ " deaf replica recovers") `Quick
                (test_fill_recovers_deaf_replica factory);
              Alcotest.test_case (name ^ " needs f+1 answers") `Quick
                (test_fill_needs_f_plus_1 factory fill);
              Alcotest.test_case (name ^ " quiet while announcing") `Quick
                (test_fill_quiet_while_announcing factory ~batch_delay);
            ])
          [
            ( "pbft",
              Pbft.Pbft_orderer.factory,
              pbft_fill,
              (* all batches requested at once: space them out by sn *)
              fun sn -> Sim.Time_ns.ms (250 * sn) );
            ( "hotstuff",
              Hotstuff.Hotstuff_orderer.factory,
              hotstuff_fill,
              (* one batch request per decided view *)
              fun _ -> Sim.Time_ns.sec 1 );
          ] );
      ("runtime", [ Alcotest.test_case "timer re-arm and stop" `Quick test_runtime_timer ]);
    ]
