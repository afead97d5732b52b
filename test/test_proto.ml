(* Tests for the proto layer: ids, batches, proposals, message sizes. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let req ~client ~ts = Proto.Request.make ~client ~ts ~submitted_at:0 ()

(* ------------------------------------------------------------------ *)
(* Quorum arithmetic *)

let test_quorums () =
  (* n = 3f+1 families. *)
  List.iter
    (fun (n, f) ->
      check_int (Printf.sprintf "f for n=%d" n) f (Proto.Ids.max_faulty ~n);
      check_int (Printf.sprintf "quorum for n=%d" n) (n - f) (Proto.Ids.quorum ~n);
      (* Two quorums always intersect in at least f+1 nodes. *)
      let q = Proto.Ids.quorum ~n in
      check_bool "quorum intersection beyond faulty" true ((2 * q) - n >= f + 1))
    [ (4, 1); (7, 2); (10, 3); (13, 4); (32, 10); (128, 42) ];
  check_int "majority of 4" 3 (Proto.Ids.majority ~n:4);
  check_int "majority of 5" 3 (Proto.Ids.majority ~n:5)

(* ------------------------------------------------------------------ *)
(* Requests *)

let test_request_id_key_injective () =
  let seen = Hashtbl.create 64 in
  for client = 0 to 40 do
    for ts = 0 to 40 do
      let k = Proto.Request.id_key { Proto.Request.client; ts } in
      (match Hashtbl.find_opt seen k with
      | Some (c', t') -> Alcotest.failf "collision: (%d,%d) vs (%d,%d)" client ts c' t'
      | None -> ());
      Hashtbl.replace seen k (client, ts)
    done
  done

let test_request_wire_size () =
  let r = req ~client:1 ~ts:1 in
  (* 500 payload + 16 id + 64 signature. *)
  check_int "default request wire size" 580 (Proto.Request.wire_size r);
  let unsigned = Proto.Request.make ~client:1 ~ts:1 ~signed:false ~submitted_at:0 () in
  check_int "unsigned request smaller" 516 (Proto.Request.wire_size unsigned)

(* A request's signature binds its client's key and its id: a request
   signed by another key, re-labelled after signing, or unsigned is
   invalid; an equal copy of the id is not a re-label. *)
let test_request_signature_binding () =
  let valid = Proto.Request.signature_valid in
  let r = req ~client:3 ~ts:9 in
  check_bool "default request is signed by its client" true (valid r);
  check_bool "equal copy of the id" true
    (valid { r with Proto.Request.id = { Proto.Request.client = 3; ts = 9 } });
  check_bool "re-labelled timestamp" false
    (valid { r with Proto.Request.id = { Proto.Request.client = 3; ts = 10 } });
  check_bool "signed by another key" false
    (valid (Proto.Request.sign (Iss_crypto.Signature.genkey ~id:4) r));
  check_bool "re-signed by its client" true
    (valid (Proto.Request.sign (Iss_crypto.Signature.genkey ~id:3) r));
  check_bool "unsigned" false
    (valid (Proto.Request.make ~client:3 ~ts:9 ~signed:false ~submitted_at:0 ()))

(* ------------------------------------------------------------------ *)
(* Batches *)

let test_batch_digest_sensitivity () =
  let b1 = Proto.Batch.make [| req ~client:1 ~ts:0; req ~client:1 ~ts:1 |] in
  let b2 = Proto.Batch.make [| req ~client:1 ~ts:0; req ~client:1 ~ts:1 |] in
  let b3 = Proto.Batch.make [| req ~client:1 ~ts:1; req ~client:1 ~ts:0 |] in
  let b4 = Proto.Batch.make [| req ~client:1 ~ts:0 |] in
  let d = Proto.Batch.digest in
  check_bool "equal content equal digest" true (Iss_crypto.Hash.equal (d b1) (d b2));
  check_bool "order matters" false (Iss_crypto.Hash.equal (d b1) (d b3));
  check_bool "length matters" false (Iss_crypto.Hash.equal (d b1) (d b4))

let test_batch_size_accounting () =
  let reqs = Array.init 10 (fun i -> req ~client:2 ~ts:i) in
  let b = Proto.Batch.make reqs in
  check_int "10 x 580 + header" ((10 * 580) + 16) (Proto.Batch.wire_size b);
  check_int "length" 10 (Proto.Batch.length b);
  check_bool "not empty" false (Proto.Batch.is_empty b);
  check_bool "empty batch is empty" true (Proto.Batch.is_empty Proto.Batch.empty)

(* ------------------------------------------------------------------ *)
(* Proposals *)

let test_proposal_nil_distinct () =
  let b = Proto.Proposal.Batch (Proto.Batch.make [| req ~client:1 ~ts:0 |]) in
  check_bool "nil is nil" true (Proto.Proposal.is_nil Proto.Proposal.Nil);
  check_bool "batch is not nil" false (Proto.Proposal.is_nil b);
  check_bool "digests differ" false
    (Iss_crypto.Hash.equal (Proto.Proposal.digest Proto.Proposal.Nil) (Proto.Proposal.digest b));
  (* The empty batch and ⊥ are different values with different digests —
     an empty keep-alive batch occupies its position, ⊥ marks an abort. *)
  check_bool "empty batch ≠ nil" false
    (Iss_crypto.Hash.equal
       (Proto.Proposal.digest (Proto.Proposal.Batch Proto.Batch.empty))
       (Proto.Proposal.digest Proto.Proposal.Nil))

(* ------------------------------------------------------------------ *)
(* Message sizes *)

let test_message_sizes_monotone () =
  let batch k = Proto.Batch.make (Array.init k (fun i -> req ~client:3 ~ts:i)) in
  let preprepare k =
    Proto.Message.Pbft
      {
        Proto.Pbft_msg.instance = 0;
        body = Proto.Pbft_msg.Preprepare { view = 0; sn = 0; proposal = Proto.Proposal.Batch (batch k) };
      }
  in
  check_bool "bigger batch, bigger message" true
    (Proto.Message.wire_size (preprepare 100) > Proto.Message.wire_size (preprepare 10));
  let prepare =
    Proto.Message.Pbft
      {
        Proto.Pbft_msg.instance = 0;
        body = Proto.Pbft_msg.Prepare { view = 0; sn = 0; digest = Iss_crypto.Hash.of_int 1 };
      }
  in
  check_bool "votes are small" true (Proto.Message.wire_size prepare < 100);
  check_bool "preprepare carries the payload" true
    (Proto.Message.wire_size (preprepare 10) > 10 * 500)

let test_hotstuff_msg_sizes () =
  let share = Iss_crypto.Threshold.sign_share (Iss_crypto.Threshold.setup ~n:4 ~t:3) ~signer:0 "m" in
  let vote =
    Proto.Message.Hotstuff
      {
        Proto.Hotstuff_msg.instance = 0;
        body = Proto.Hotstuff_msg.Vote { view = 0; digest = Iss_crypto.Hash.of_int 0; share };
      }
  in
  (* Constant-size votes: the linear-message-complexity property. *)
  check_bool "hotstuff vote ~100B" true (Proto.Message.wire_size vote < 150)

let test_checkpoint_material_distinct () =
  let root = Iss_crypto.Hash.of_int 7 in
  let mk ~epoch ~max_sn ~req_count ~policy =
    Proto.Message.checkpoint_material ~epoch ~max_sn ~root ~req_count ~policy
  in
  let m1 = mk ~epoch:1 ~max_sn:255 ~req_count:100 ~policy:"blacklist:-1,-1" in
  let m2 = mk ~epoch:2 ~max_sn:255 ~req_count:100 ~policy:"blacklist:-1,-1" in
  let m3 = mk ~epoch:1 ~max_sn:511 ~req_count:100 ~policy:"blacklist:-1,-1" in
  let m4 = mk ~epoch:1 ~max_sn:255 ~req_count:101 ~policy:"blacklist:-1,-1" in
  let m5 = mk ~epoch:1 ~max_sn:255 ~req_count:100 ~policy:"blacklist:7,-1" in
  check_bool "epoch in material" false (String.equal m1 m2);
  check_bool "max_sn in material" false (String.equal m1 m3);
  check_bool "req_count in material" false (String.equal m1 m4);
  check_bool "policy in material" false (String.equal m1 m5)

(* The batches a leader proposes, and nothing else: the node traces
   SB-broadcast and the Byzantine replay attack records requests through
   this one reader. *)
let test_iter_proposed_batches () =
  let batch k = Proto.Batch.make (Array.init k (fun i -> req ~client:k ~ts:i)) in
  let b1 = batch 1 and b2 = batch 2 and b3 = batch 3 in
  let proposed msg =
    let got = ref [] in
    Proto.Message.iter_proposed_batches (fun b -> got := b :: !got) msg;
    List.rev !got
  in
  let same name expected msg =
    check_bool name true
      (List.equal (fun a b -> a == b) expected (proposed msg))
  in
  let pbft body = Proto.Message.Pbft { Proto.Pbft_msg.instance = 3; body } in
  let hotstuff body = Proto.Message.Hotstuff { Proto.Hotstuff_msg.instance = 3; body } in
  let raft body = Proto.Message.Raft { Proto.Raft_msg.instance = 3; body } in
  let digest = Iss_crypto.Hash.of_int 1 in
  let cert =
    {
      Proto.Message.cc_epoch = 0;
      cc_max_sn = 255;
      cc_root = digest;
      cc_req_count = 0;
      cc_policy = "";
      cc_sigs = [];
    }
  in
  let preprepare proposal = pbft (Proto.Pbft_msg.Preprepare { view = 0; sn = 5; proposal }) in
  same "pre-prepare" [ b1 ] (preprepare (Proto.Proposal.Batch b1));
  same "pre-prepare of nil" [] (preprepare Proto.Proposal.Nil);
  same "hotstuff proposal" [ b2 ]
    (hotstuff
       (Proto.Hotstuff_msg.Proposal_msg
          {
            view = 4;
            sn = 5;
            parent = digest;
            proposal = Proto.Proposal.Batch b2;
            justify = None;
          }));
  let entry idx proposal = { Proto.Raft_msg.idx; term = 1; proposal } in
  same "raft append, nil entry skipped" [ b1; b3 ]
    (raft
       (Proto.Raft_msg.Append_entries
          {
            term = 1;
            prev_idx = -1;
            prev_term = 0;
            entries =
              [
                entry 0 (Proto.Proposal.Batch b1);
                entry 1 Proto.Proposal.Nil;
                entry 2 (Proto.Proposal.Batch b3);
              ];
            leader_commit = -1;
          }));
  List.iter
    (fun (name, msg) -> same name [] msg)
    [
      ("pbft prepare", pbft (Proto.Pbft_msg.Prepare { view = 0; sn = 5; digest }));
      ("pbft commit", pbft (Proto.Pbft_msg.Commit { view = 0; sn = 5; digest }));
      ( "pbft new-view",
        pbft
          (Proto.Pbft_msg.New_view
             { view = 1; view_changes = []; preprepares = [ (5, Proto.Proposal.Batch b1) ] }) );
      ( "hotstuff vote",
        hotstuff
          (Proto.Hotstuff_msg.Vote
             {
               view = 4;
               digest;
               share =
                 Iss_crypto.Threshold.sign_share (Iss_crypto.Threshold.setup ~n:4 ~t:3) ~signer:0
                   "m";
             }) );
      ( "hotstuff new-view",
        hotstuff (Proto.Hotstuff_msg.New_view { view = 4; rotation = 1; justify = None }) );
      ( "raft reply",
        raft (Proto.Raft_msg.Append_reply { term = 1; success = true; match_idx = 0 }) );
      ( "checkpoint",
        Proto.Message.Checkpoint_msg
          {
            epoch = 0;
            max_sn = 255;
            root = digest;
            req_count = 0;
            policy = "";
            signer = 1;
            sig_ = Iss_crypto.Signature.sign (Iss_crypto.Signature.genkey ~id:1) "m";
          } );
      ( "state reply",
        Proto.Message.State_reply { entries = [ (5, Proto.Proposal.Batch b1) ]; cert } );
      ("garbled pre-prepare", Proto.Message.Garbled (preprepare (Proto.Proposal.Batch b1)));
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "proto"
    [
      ("ids", [ Alcotest.test_case "quorum arithmetic" `Quick test_quorums ]);
      ( "requests",
        [
          Alcotest.test_case "id_key injective" `Quick test_request_id_key_injective;
          Alcotest.test_case "wire sizes" `Quick test_request_wire_size;
          Alcotest.test_case "signature binding" `Quick test_request_signature_binding;
        ] );
      ( "batches",
        [
          Alcotest.test_case "digest sensitivity" `Quick test_batch_digest_sensitivity;
          Alcotest.test_case "size accounting" `Quick test_batch_size_accounting;
        ] );
      ("proposals", [ Alcotest.test_case "nil distinct" `Quick test_proposal_nil_distinct ]);
      ( "messages",
        [
          Alcotest.test_case "sizes monotone" `Quick test_message_sizes_monotone;
          Alcotest.test_case "hotstuff vote size" `Quick test_hotstuff_msg_sizes;
          Alcotest.test_case "checkpoint material" `Quick test_checkpoint_material_distinct;
          Alcotest.test_case "proposed batches" `Quick test_iter_proposed_batches;
        ] );
    ]
