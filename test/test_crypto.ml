(* Tests for the crypto substrate: SHA-256 against official vectors,
   simulated signatures, threshold signatures, Merkle trees. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* SHA-256: NIST / RFC 6234 test vectors. *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ("a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
  ]

let test_sha_vectors () =
  List.iter
    (fun (input, expected) -> check_string input expected (Iss_crypto.Sha256.digest_hex input))
    sha_vectors

let test_sha_million_a () =
  (* The classic "one million 'a'" vector. *)
  let ctx = Iss_crypto.Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Iss_crypto.Sha256.update ctx chunk
  done;
  check_string "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Iss_crypto.Sha256.hex (Iss_crypto.Sha256.finalize ctx))

let prop_sha_incremental =
  QCheck.Test.make ~name:"incremental = one-shot" ~count:200
    QCheck.(pair small_string (list small_string))
    (fun (first, rest) ->
      let ctx = Iss_crypto.Sha256.init () in
      Iss_crypto.Sha256.update ctx first;
      List.iter (Iss_crypto.Sha256.update ctx) rest;
      Iss_crypto.Sha256.finalize ctx
      = Iss_crypto.Sha256.digest (String.concat "" (first :: rest)))

let prop_sha_update_sub =
  QCheck.Test.make ~name:"update_sub slices correctly" ~count:100
    QCheck.(string_of_size Gen.(int_range 10 200))
    (fun s ->
      let mid = String.length s / 2 in
      let ctx = Iss_crypto.Sha256.init () in
      Iss_crypto.Sha256.update_sub ctx s ~pos:0 ~len:mid;
      Iss_crypto.Sha256.update_sub ctx s ~pos:mid ~len:(String.length s - mid);
      Iss_crypto.Sha256.finalize ctx = Iss_crypto.Sha256.digest s)

(* ------------------------------------------------------------------ *)
(* Hash helpers *)

let test_hash_basics () =
  let h = Iss_crypto.Hash.of_string "payload" in
  Alcotest.(check int) "raw size" 32 (String.length (Iss_crypto.Hash.raw h));
  check_bool "equal self" true (Iss_crypto.Hash.equal h (Iss_crypto.Hash.of_string "payload"));
  check_bool "different input different hash" false
    (Iss_crypto.Hash.equal h (Iss_crypto.Hash.of_string "payloae"));
  let c1 = Iss_crypto.Hash.combine h h in
  check_bool "combine not identity" false (Iss_crypto.Hash.equal c1 h);
  Alcotest.(check string) "of_raw round trip"
    (Iss_crypto.Hash.to_hex h)
    (Iss_crypto.Hash.to_hex (Iss_crypto.Hash.of_raw (Iss_crypto.Hash.raw h)))

(* [Sha256.hex] feeds [Hash.short], hence the conformance fingerprints: it
   must render every byte exactly as [Printf "%02x"] does. *)
let test_hex_all_bytes () =
  let all = String.init 256 Char.chr in
  let reference =
    String.concat "" (List.init 256 (fun b -> Printf.sprintf "%02x" b))
  in
  check_string "all 256 byte values" reference (Iss_crypto.Sha256.hex all);
  check_string "empty" "" (Iss_crypto.Sha256.hex "")

(* ------------------------------------------------------------------ *)
(* Signatures *)

let test_signature_verify () =
  let kp = Iss_crypto.Signature.genkey ~id:42 in
  let s = Iss_crypto.Signature.sign kp "message" in
  check_bool "verifies" true
    (Iss_crypto.Signature.verify (Iss_crypto.Signature.public_of_id 42) "message" s);
  check_bool "wrong message" false
    (Iss_crypto.Signature.verify (Iss_crypto.Signature.public_of_id 42) "other" s);
  check_bool "wrong key" false
    (Iss_crypto.Signature.verify (Iss_crypto.Signature.public_of_id 43) "message" s);
  (* Node 43 signing the same message cannot pass for 42, and vice versa. *)
  let other = Iss_crypto.Signature.sign (Iss_crypto.Signature.genkey ~id:43) "message" in
  check_bool "wrong-key signature rejected" false
    (Iss_crypto.Signature.verify (Iss_crypto.Signature.public_of_id 42) "message" other);
  check_bool "... and verifies for its own signer" true
    (Iss_crypto.Signature.verify (Iss_crypto.Signature.public_of_id 43) "message" other)

(* A signature binds both its signer and its message: across a grid of keys
   and messages, it verifies only at its own (key, message) pair. *)
let test_signature_binding () =
  let msgs = [ "a"; "b"; "ab"; "" ] in
  List.iter
    (fun id ->
      List.iter
        (fun msg ->
          let s = Iss_crypto.Signature.sign (Iss_crypto.Signature.genkey ~id) msg in
          List.iter
            (fun id' ->
              List.iter
                (fun msg' ->
                  check_bool
                    (Printf.sprintf "sig(%d,%S) at (%d,%S)" id msg id' msg')
                    (id = id' && msg = msg')
                    (Iss_crypto.Signature.verify (Iss_crypto.Signature.public_of_id id') msg' s))
                msgs)
            [ 0; 1; 7 ])
        msgs)
    [ 0; 1; 7 ]

let prop_signature_roundtrip =
  QCheck.Test.make ~name:"sign/verify round trip" ~count:100
    QCheck.(pair small_nat small_string)
    (fun (id, msg) ->
      let kp = Iss_crypto.Signature.genkey ~id in
      Iss_crypto.Signature.verify (Iss_crypto.Signature.public kp) msg
        (Iss_crypto.Signature.sign kp msg))

(* ------------------------------------------------------------------ *)
(* Threshold signatures *)

let test_threshold_combine () =
  let g = Iss_crypto.Threshold.setup ~n:7 ~t:5 in
  let msg = "qc material" in
  let shares = List.init 5 (fun i -> Iss_crypto.Threshold.sign_share g ~signer:i msg) in
  (match Iss_crypto.Threshold.combine g msg shares with
  | Some c -> check_bool "combined verifies" true (Iss_crypto.Threshold.verify g msg c)
  | None -> Alcotest.fail "combine with t shares must succeed");
  (* Too few shares. *)
  check_bool "4 shares fail" true
    (Iss_crypto.Threshold.combine g msg (List.filteri (fun i _ -> i < 4) shares) = None);
  (* Duplicated signer doesn't count twice. *)
  let dup = List.init 5 (fun _ -> Iss_crypto.Threshold.sign_share g ~signer:0 msg) in
  check_bool "duplicate signers fail" true (Iss_crypto.Threshold.combine g msg dup = None);
  (* Shares over a different message don't combine. *)
  let wrong = Iss_crypto.Threshold.sign_share g ~signer:6 "other" in
  check_bool "foreign-message share ignored" true
    (Iss_crypto.Threshold.combine g msg (wrong :: List.filteri (fun i _ -> i < 4) shares)
    = None)

let test_threshold_share_verify () =
  let g = Iss_crypto.Threshold.setup ~n:4 ~t:3 in
  let s = Iss_crypto.Threshold.sign_share g ~signer:2 "m" in
  check_bool "share verifies" true (Iss_crypto.Threshold.verify_share g ~signer:2 "m" s);
  check_bool "wrong signer" false (Iss_crypto.Threshold.verify_share g ~signer:1 "m" s);
  check_bool "wrong msg" false (Iss_crypto.Threshold.verify_share g ~signer:2 "x" s)

(* Each of two live groups keeps rejecting the other's share. *)
let test_threshold_groups_isolated () =
  let g1 = Iss_crypto.Threshold.setup ~n:4 ~t:3 in
  let g2 = Iss_crypto.Threshold.setup ~n:7 ~t:5 in
  let s1 = Iss_crypto.Threshold.sign_share g1 ~signer:2 "m" in
  let s2 = Iss_crypto.Threshold.sign_share g2 ~signer:2 "m" in
  check_bool "g1 share in g1" true (Iss_crypto.Threshold.verify_share g1 ~signer:2 "m" s1);
  check_bool "g2 share in g2" true (Iss_crypto.Threshold.verify_share g2 ~signer:2 "m" s2);
  check_bool "g1 share in g2" false (Iss_crypto.Threshold.verify_share g2 ~signer:2 "m" s1);
  check_bool "g2 share in g1" false (Iss_crypto.Threshold.verify_share g1 ~signer:2 "m" s2);
  check_bool "g1 share still in g1" true (Iss_crypto.Threshold.verify_share g1 ~signer:2 "m" s1)

(* Shares and QCs are bound to their group's (n, t) and to their message:
   one from another group, or over another message, neither verifies nor
   combines. *)
let test_threshold_binding () =
  let module T = Iss_crypto.Threshold in
  let g = T.setup ~n:4 ~t:3 and g' = T.setup ~n:4 ~t:2 and h = T.setup ~n:5 ~t:3 in
  let shares g msg = List.init 3 (fun i -> T.sign_share g ~signer:i msg) in
  let qc g msg =
    match T.combine g msg (shares g msg) with Some c -> c | None -> Alcotest.fail "combine"
  in
  check_bool "own QC verifies" true (T.verify g "m" (qc g "m"));
  check_bool "QC over another message" false (T.verify g "m" (qc g "x"));
  List.iter
    (fun (name, other) ->
      check_bool (name ^ ": share does not verify") false
        (T.verify_share g ~signer:0 "m" (T.sign_share other ~signer:0 "m"));
      check_bool (name ^ ": shares do not combine") true (T.combine g "m" (shares other "m") = None);
      check_bool (name ^ ": QC does not verify") false (T.verify g "m" (qc other "m")))
    [ ("other t", g'); ("other n", h) ];
  check_bool "shares over another message do not combine" true
    (T.combine g "m" (shares g "x") = None);
  (* A same-(n, t) setup is the same deterministic group. *)
  check_bool "same (n, t) is the same group" true
    (T.verify (T.setup ~n:4 ~t:3) "m" (qc g "m"))

let test_threshold_signer_range () =
  let g = Iss_crypto.Threshold.setup ~n:4 ~t:3 in
  let s = Iss_crypto.Threshold.sign_share g ~signer:3 "m" in
  check_bool "signer -1 rejected" false (Iss_crypto.Threshold.verify_share g ~signer:(-1) "m" s);
  check_bool "signer n rejected" false (Iss_crypto.Threshold.verify_share g ~signer:4 "m" s);
  List.iter
    (fun signer ->
      Alcotest.check_raises
        (Printf.sprintf "sign_share signer %d" signer)
        (Invalid_argument "Threshold.sign_share: bad signer")
        (fun () -> ignore (Iss_crypto.Threshold.sign_share g ~signer "m")))
    [ -1; 4 ]

let test_threshold_setup_invalid () =
  Alcotest.check_raises "t > n rejected" (Invalid_argument "Threshold.setup: need 0 < t <= n")
    (fun () -> ignore (Iss_crypto.Threshold.setup ~n:3 ~t:4))

(* ------------------------------------------------------------------ *)
(* Merkle trees *)

let leaves_of n = Array.init n (fun i -> Iss_crypto.Hash.of_int i)

let test_merkle_root_sizes () =
  (* Roots differ for different leaf sets; singleton root = the leaf. *)
  let r1 = Iss_crypto.Merkle.root (leaves_of 1) in
  check_bool "singleton root is leaf" true (Iss_crypto.Hash.equal r1 (Iss_crypto.Hash.of_int 0));
  let r5 = Iss_crypto.Merkle.root (leaves_of 5) in
  let r6 = Iss_crypto.Merkle.root (leaves_of 6) in
  check_bool "different trees differ" false (Iss_crypto.Hash.equal r5 r6)

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha_vectors;
          Alcotest.test_case "million a" `Slow test_sha_million_a;
          qc prop_sha_incremental;
          qc prop_sha_update_sub;
        ] );
      ( "hash",
        [
          Alcotest.test_case "basics" `Quick test_hash_basics;
          Alcotest.test_case "hex of every byte" `Quick test_hex_all_bytes;
        ] );
      ( "signature",
        [
          Alcotest.test_case "verify/reject" `Quick test_signature_verify;
          Alcotest.test_case "binds signer and message" `Quick test_signature_binding;
          qc prop_signature_roundtrip;
        ]
      );
      ( "threshold",
        [
          Alcotest.test_case "combine rules" `Quick test_threshold_combine;
          Alcotest.test_case "share verify" `Quick test_threshold_share_verify;
          Alcotest.test_case "groups isolated" `Quick test_threshold_groups_isolated;
          Alcotest.test_case "binds group and message" `Quick test_threshold_binding;
          Alcotest.test_case "signer range" `Quick test_threshold_signer_range;
          Alcotest.test_case "invalid setup" `Quick test_threshold_setup_invalid;
        ] );
      ("merkle", [ Alcotest.test_case "roots" `Quick test_merkle_root_sizes ]);
    ]
