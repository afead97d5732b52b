(* Unit tests for the client module (§4.3): leader detection targets,
   reply quorums, watermark-window pacing, resubmission on epoch change. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type sent = { dst : int; msg : Proto.Message.t }

let make_client ?(n = 4) () =
  let config = Core.Config.pbft_default ~n in
  let engine = Sim.Engine.create () in
  let clock = Core.Orderer_intf.Clock.of_engine engine in
  let sent = ref [] in
  let completed = ref [] in
  let client =
    Core.Client.create ~config ~id:100 ~clock
      ~send:(fun ~dst msg -> sent := { dst; msg } :: !sent)
      ~on_complete:(fun req ~latency:_ -> completed := req :: !completed)
      ()
  in
  (client, engine, sent, completed, config)

let request_targets sent =
  List.filter_map
    (fun { dst; msg } -> match msg with Proto.Message.Request_msg _ -> Some dst | _ -> None)
    !sent

let test_submission_targets () =
  let client, _, sent, _, _config = make_client () in
  Core.Client.submit_next client;
  let targets = request_targets sent in
  (* The request goes to 1-3 distinct nodes: the projected owner for the
     current epoch plus the next two (possibly coinciding). *)
  check_bool "1..3 targets" true (List.length targets >= 1 && List.length targets <= 3);
  check_int "all distinct" (List.length targets)
    (List.length (List.sort_uniq compare targets));
  check_int "one in flight" 1 (Core.Client.in_flight client)

let test_reply_quorum_f_plus_one () =
  let client, _, _, completed, _ = make_client ~n:4 () in
  Core.Client.submit_next client;
  let req_id = { Proto.Request.client = 100; ts = 0 } in
  let reply replier =
    Core.Client.on_message client ~src:replier
      (Proto.Message.Reply { req_id; sn = 0; replier })
  in
  reply 0;
  check_int "one reply is not enough (f=1)" 0 (List.length !completed);
  reply 0;
  check_int "duplicate replier does not count" 0 (List.length !completed);
  reply 2;
  check_int "f+1 distinct replies complete" 1 (List.length !completed);
  reply 3;
  check_int "extra replies ignored" 1 (List.length !completed)

let test_window_backpressure () =
  let window = Core.Config.client_watermark_window in
  let client, _, sent, _, _ = make_client () in
  for _ = 1 to window + 6 do
    Core.Client.submit_next client
  done;
  check_int "window caps in-flight" window (Core.Client.in_flight client);
  (* Complete the first request: the backlog drains by one. *)
  let n_sent_before = List.length (request_targets sent) in
  let req_id = { Proto.Request.client = 100; ts = 0 } in
  List.iter
    (fun replier ->
      Core.Client.on_message client ~src:replier
        (Proto.Message.Reply { req_id; sn = 0; replier }))
    [ 0; 1 ];
  check_int "backlog drained into the window" window (Core.Client.in_flight client);
  check_bool "a queued request was sent" true
    (List.length (request_targets sent) > n_sent_before)

let test_bucket_update_and_resubmission () =
  let client, _, sent, _, _config = make_client ~n:4 () in
  Core.Client.submit_next client;
  sent := [];
  (* A quorum (f+1 = 2) of matching Bucket_update messages for epoch 1
     triggers adoption and resubmission of the pending request. *)
  let bucket_leaders = Array.make (Core.Config.num_buckets _config) 2 in
  let update src =
    Core.Client.on_message client ~src
      (Proto.Message.Bucket_update { epoch = 1; bucket_leaders })
  in
  update 0;
  check_int "single vote: no resubmission yet" 0 (List.length (request_targets sent));
  update 1;
  let targets = request_targets sent in
  check_bool "pending request resubmitted" true (List.length targets > 0);
  (* The new assignment maps every bucket to node 2; the resubmission
     includes it. *)
  check_bool "sent to the announced owner" true (List.mem 2 targets)

let test_open_loop_rate () =
  let client, engine, sent, _, _ = make_client () in
  Core.Client.start_open_loop client ~rate:25.0 ~until:(Sim.Time_ns.sec 10);
  Sim.Engine.run ~until:(Sim.Time_ns.sec 10) engine;
  (* ~250 submissions expected, well inside the 512-request window; each
     fans out to up to 3 targets. *)
  let submissions = Core.Client.in_flight client in
  check_bool
    (Printf.sprintf "roughly rate*duration submissions (%d)" submissions)
    true
    (submissions > 175 && submissions < 325);
  check_bool "messages actually sent" true (List.length (request_targets sent) >= submissions)

let () =
  Alcotest.run "client"
    [
      ( "client",
        [
          Alcotest.test_case "submission targets" `Quick test_submission_targets;
          Alcotest.test_case "reply quorum f+1" `Quick test_reply_quorum_f_plus_one;
          Alcotest.test_case "watermark backpressure" `Quick test_window_backpressure;
          Alcotest.test_case "bucket update + resubmission" `Quick
            test_bucket_update_and_resubmission;
          Alcotest.test_case "open loop rate" `Quick test_open_loop_rate;
        ] );
    ]
