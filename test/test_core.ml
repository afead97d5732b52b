(* Unit and property tests for the ISS core data structures. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let req ~client ~ts = Proto.Request.make ~client ~ts ~submitted_at:0 ()

(* Words the minor heap grew by per call of [f], over [n] calls; the
   probe's own boxed floats stay far below 0.01 words per call. *)
let words_per_call ~n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_no_alloc what words =
  if words >= 0.01 then Alcotest.failf "%s allocates %.2f words per call" what words

(* ------------------------------------------------------------------ *)
(* Bucket queue *)

module Bq = Core.Bucket_queue

let ts_of (batch : Proto.Request.t array) =
  Array.to_list (Array.map (fun (r : Proto.Request.t) -> r.id.Proto.Request.ts) batch)

(* One bucket, so every request shares a FIFO. *)
let single () = Bq.create ~num_buckets:1

let cut1 q ~max = Bq.cut q ~buckets:[ 0 ] ~max

(* Two buckets, for cuts that merge arrival order across them. *)
let two () = Bq.create ~num_buckets:2

(* Client 1's first request from timestamp [from] on that maps to [bucket]
   of a two-bucket queue. *)
let in_bucket bucket from =
  let rec go ts =
    if Proto.Request.bucket_of_id ~num_buckets:2 { Proto.Request.client = 1; ts } = bucket then
      req ~client:1 ~ts
    else go (ts + 1)
  in
  go from

let ts_of_req (r : Proto.Request.t) = r.id.Proto.Request.ts

let test_bq_fifo () =
  let q = single () in
  for i = 0 to 9 do
    check_bool "add" true (Bq.add q (req ~client:1 ~ts:i))
  done;
  check_int "length" 10 (Bq.length q ~bucket:0);
  Alcotest.(check (list int)) "oldest four" [ 0; 1; 2; 3 ] (ts_of (cut1 q ~max:4));
  check_int "remaining" 6 (Bq.length q ~bucket:0);
  check_int "pending" 6 (Bq.pending q);
  (* Across buckets, a cut takes the oldest arrivals wherever they are
     queued, whatever the order the buckets are listed in. *)
  let q = two () in
  let a0 = in_bucket 0 0 in
  let b0 = in_bucket 1 0 in
  let a1 = in_bucket 0 (ts_of_req a0 + 1) in
  let b1 = in_bucket 1 (ts_of_req b0 + 1) in
  List.iter (fun r -> ignore (Bq.add q r)) [ a0; b0; b1; a1 ];
  Alcotest.(check (list int)) "merged arrival order"
    (List.map ts_of_req [ a0; b0; b1 ])
    (ts_of (Bq.cut q ~buckets:[ 1; 0 ] ~max:3));
  Alcotest.(check (list int)) "a cut of one bucket leaves the other" []
    (ts_of (Bq.cut q ~buckets:[ 1 ] ~max:3));
  Alcotest.(check (list int)) "the rest" [ ts_of_req a1 ]
    (ts_of (Bq.cut q ~buckets:[ 0; 1 ] ~max:3))

let test_bq_idempotent_add () =
  let q = single () in
  let r = req ~client:1 ~ts:5 in
  check_bool "first add" true (Bq.add q r);
  check_bool "duplicate rejected" false (Bq.add q r);
  check_int "held once" 1 (Bq.length q ~bucket:0);
  check_int "counted once" 1 (Bq.total_added q)

(* Removal on commit, queued or not. *)
let test_bq_remove () =
  let q = two () in
  let r1 = in_bucket 0 0 in
  let r2 = in_bucket 1 0 in
  let r3 = in_bucket 0 (ts_of_req r1 + 1) in
  List.iter (fun r -> ignore (Bq.add q r)) [ r1; r2; r3 ];
  Bq.commit q r1.id;
  check_bool "committed request unqueued" false (Bq.queued q r1.id);
  check_bool "other request still queued" true (Bq.queued q r2.id);
  Bq.commit q r1.id;
  check_int "one left in its bucket" 1 (Bq.length q ~bucket:0);
  Alcotest.(check (list int)) "r2 now oldest" [ ts_of_req r2 ]
    (ts_of (Bq.cut q ~buckets:[ 0; 1 ] ~max:1));
  (* Committing a cut request forgets its arrival number: the id, were it
     ever queued again, would be a new arrival. *)
  Bq.commit q r2.id;
  let r4 = in_bucket 0 (ts_of_req r3 + 1) in
  ignore (Bq.add q r4);
  ignore (Bq.add q r2);
  Alcotest.(check (list int)) "forgotten id re-enters last"
    (List.map ts_of_req [ r3; r4; r2 ])
    (ts_of (Bq.cut q ~buckets:[ 1; 0 ] ~max:5))

let test_bq_resurrect_order () =
  let q = single () in
  let rs = Array.init 5 (fun i -> req ~client:1 ~ts:i) in
  Array.iter (fun r -> ignore (Bq.add q r)) rs;
  (* Cut 0,1,2 as if proposing, then resurrect 1: it must come out before 3
     and 4, at its original arrival position. *)
  ignore (cut1 q ~max:3);
  Bq.resurrect q rs.(1);
  Alcotest.(check (list int)) "resurrected keeps reception order" [ 1; 3; 4 ]
    (ts_of (cut1 q ~max:10))

(* A request that left its queue without committing — cut into a batch, or
   evicted as drop-oldest does with a one-request cut of its bucket — and is
   then re-submitted re-enters at its original arrival position, not behind
   later arrivals, in other buckets too. *)
let test_bq_rearrival_order () =
  let q = two () in
  let rs = Array.make 6 (in_bucket 0 0) in
  for i = 1 to 5 do
    rs.(i) <- in_bucket 0 (ts_of_req rs.(i - 1) + 1)
  done;
  let other = in_bucket 1 0 in
  for i = 0 to 3 do
    ignore (Bq.add q rs.(i))
  done;
  ignore (Bq.add q other);
  let ts is = List.map (fun i -> ts_of_req rs.(i)) is in
  Alcotest.(check (list int)) "evicted" (ts [ 0 ]) (ts_of (Bq.cut q ~buckets:[ 0 ] ~max:1));
  Alcotest.(check (list int)) "cut" (ts [ 1; 2 ]) (ts_of (Bq.cut q ~buckets:[ 0 ] ~max:2));
  ignore (Bq.add q rs.(4));
  check_bool "cut request re-submitted" true (Bq.add q rs.(2));
  check_bool "evicted request re-submitted" true (Bq.add q rs.(0));
  ignore (Bq.add q rs.(5));
  Alcotest.(check (list int)) "evicted request is oldest again, across buckets" (ts [ 0 ])
    (ts_of (Bq.cut q ~buckets:[ 1; 0 ] ~max:1));
  Alcotest.(check (list int)) "original arrival order"
    (ts [ 2; 3 ] @ [ ts_of_req other ] @ ts [ 4; 5 ])
    (ts_of (Bq.cut q ~buckets:[ 1; 0 ] ~max:10))

(* A commit of an id this node never queued — it only validated it — leaves
   the queues and the arrival order as they were. *)
let test_bq_commit_unknown () =
  let q = single () in
  let a = req ~client:1 ~ts:0 and b = req ~client:1 ~ts:1 and c = req ~client:1 ~ts:2 in
  List.iter (fun r -> ignore (Bq.add q r)) [ a; b; c ];
  ignore (cut1 q ~max:1);
  Bq.commit q { Proto.Request.client = 9; ts = 9 };
  check_int "length unchanged" 2 (Bq.length q ~bucket:0);
  check_int "pending unchanged" 2 (Bq.pending q);
  check_bool "never queued" false (Bq.queued q { Proto.Request.client = 9; ts = 9 });
  check_bool "cut request re-submitted" true (Bq.add q a);
  Alcotest.(check (list int)) "cut request back at the front" [ 0; 1; 2 ]
    (ts_of (cut1 q ~max:10))

(* Resurrecting an id the node never numbered queues it at the next arrival
   number without consuming it, so the next fresh arrival shares that
   number; a cut across both buckets breaks the tie by list order. *)
let test_bq_resurrect_unknown () =
  let first = in_bucket 0 0 in
  let stray = in_bucket 0 (ts_of_req first + 1) in
  let fresh = in_bucket 1 0 in
  let later = in_bucket 0 (ts_of_req stray + 1) in
  let cut_after_tie buckets =
    let q = two () in
    ignore (Bq.add q first);
    ignore (Bq.cut q ~buckets:[ 0 ] ~max:1);
    Bq.resurrect q stray;
    ignore (Bq.add q fresh);
    ignore (Bq.add q later);
    ts_of (Bq.cut q ~buckets ~max:3)
  in
  Alcotest.(check (list int)) "tie goes to the first listed bucket"
    (List.map ts_of_req [ stray; fresh; later ])
    (cut_after_tie [ 0; 1 ]);
  Alcotest.(check (list int)) "number not consumed"
    (List.map ts_of_req [ fresh; stray; later ])
    (cut_after_tie [ 1; 0 ])

(* Model-based property over four buckets: the queues behave like a table
   of arrival numbers, first given on first arrival and dropped on commit,
   plus a set of queued ids that a cut over 1-4 listed buckets takes in
   arrival order, the earlier-listed bucket first on equal numbers.  Equal
   numbers arise as in a node: an unnumbered id that is resurrected shares
   the next arrival number.  An operation that would give two ids of one
   bucket the same number is skipped, since only the cross-bucket rule is
   specified. *)
let prop_bq_model =
  let open QCheck in
  let num_buckets = 4 in
  let op_gen =
    Gen.(
      frequency
        [
          (6, map (fun ts -> `Add ts) (int_range 0 50));
          (2, map (fun ts -> `Commit ts) (int_range 0 50));
          (2, map (fun ts -> `Resurrect ts) (int_range 0 50));
          ( 3,
            map2
              (fun bs k -> `Cut (bs, k))
              (map2
                 (fun order m -> List.filteri (fun i _ -> i < m) order)
                 (shuffle_l (List.init num_buckets Fun.id))
                 (int_range 1 num_buckets))
              (int_range 1 5) );
        ])
  in
  Test.make ~name:"bucket queue matches reference model" ~count:300
    (make (Gen.list_size (Gen.int_range 1 80) op_gen))
    (fun ops ->
      let q = Bq.create ~num_buckets in
      let bucket_of ts = Proto.Request.bucket_of_id ~num_buckets { Proto.Request.client = 7; ts } in
      let numbered = Hashtbl.create 16 (* ts -> arrival number *) in
      let queued = Hashtbl.create 16 (* ts -> () *) in
      let next = ref 0 and added = ref 0 and high = ref 0 in
      let ok = ref true in
      let occupancy b =
        Hashtbl.fold (fun ts () n -> if bucket_of ts = b then n + 1 else n) queued 0
      in
      let enqueue ts =
        Hashtbl.replace queued ts ();
        incr added;
        high := max !high (occupancy (bucket_of ts))
      in
      (* Whether a first-seen [ts] may take the next number: no id of its
         bucket holds that number already. *)
      let may_number ts =
        Hashtbl.mem numbered ts
        || not
             (Hashtbl.fold
                (fun ts' s acc -> acc || (s = !next && bucket_of ts' = bucket_of ts))
                numbered false)
      in
      List.iter
        (fun op ->
          match op with
          | `Add ts when may_number ts ->
              let got = Bq.add q (req ~client:7 ~ts) in
              let expect = not (Hashtbl.mem queued ts) in
              if got <> expect then ok := false;
              if expect then begin
                if not (Hashtbl.mem numbered ts) then begin
                  Hashtbl.replace numbered ts !next;
                  incr next
                end;
                enqueue ts
              end
          | `Add _ -> ()
          | `Commit ts ->
              Bq.commit q { Proto.Request.client = 7; ts };
              Hashtbl.remove numbered ts;
              Hashtbl.remove queued ts
          | `Resurrect ts when may_number ts ->
              Bq.resurrect q (req ~client:7 ~ts);
              if not (Hashtbl.mem numbered ts) then Hashtbl.replace numbered ts !next;
              if not (Hashtbl.mem queued ts) then enqueue ts
          | `Resurrect _ -> ()
          | `Cut (bs, k) ->
              let rank b =
                let rec go i = function
                  | b' :: rest -> if b' = b then Some i else go (i + 1) rest
                  | [] -> None
                in
                go 0 bs
              in
              let expected =
                Hashtbl.fold
                  (fun ts () acc ->
                    match rank (bucket_of ts) with
                    | Some i -> (Hashtbl.find numbered ts, i, ts) :: acc
                    | None -> acc)
                  queued []
                |> List.sort compare
                |> List.filteri (fun i _ -> i < k)
                |> List.map (fun (_, _, ts) -> ts)
              in
              if ts_of (Bq.cut q ~buckets:bs ~max:k) <> expected then ok := false;
              List.iter (Hashtbl.remove queued) expected)
        ops;
      !ok
      && List.for_all
           (fun b -> Bq.length q ~bucket:b = occupancy b)
           (List.init num_buckets Fun.id)
      && Bq.pending q = Hashtbl.length queued
      && Bq.total_added q = !added
      && Bq.max_occupancy q = !high)

(* A bucket gets its own fifo record and ring on its first add: until then
   every bucket costs just its slot in the bucket array, all sharing one
   empty fifo, while a record and the smallest ring would add 9 more words.
   [clear] hands every record and ring back. *)
let test_bq_no_ring_until_add () =
  let num_buckets = 2048 in
  let q = Bq.create ~num_buckets in
  let words () = Obj.reachable_words (Obj.repr q) in
  let shared = 2 * num_buckets and bound = 9 * num_buckets in
  if words () >= shared then
    Alcotest.failf "empty queue holds %d words, per-bucket records from %d" (words ()) shared;
  for ts = 0 to (4 * num_buckets) - 1 do
    ignore (Bq.add q (req ~client:1 ~ts))
  done;
  check_bool "adds give buckets rings" true (words () >= bound);
  Bq.clear q;
  if words () >= shared then
    Alcotest.failf "cleared queue holds %d words, per-bucket records from %d" (words ()) shared

(* A commit in a bucket this node never indexed a request of skips the
   index: it allocates nothing and changes nothing. *)
let test_bq_commit_unindexed_bucket () =
  let q = two () in
  let held = Array.init 8 (fun i -> in_bucket 0 (if i = 0 then 0 else i * 100)) in
  Array.iter (fun r -> ignore (Bq.add q r)) held;
  let words = Obj.reachable_words (Obj.repr q) in
  let strangers = Array.init 10_001 (fun i -> (in_bucket 1 (3 * i)).Proto.Request.id) in
  check_no_alloc "Bucket_queue.commit in an unindexed bucket"
    (words_per_call ~n:10_000 (fun i -> Bq.commit q strangers.(i)));
  check_int "pending unchanged" 8 (Bq.pending q);
  check_int "index unchanged" words (Obj.reachable_words (Obj.repr q));
  check_bool "held requests still queued" true
    (Array.for_all (fun (r : Proto.Request.t) -> Bq.queued q r.id) held)

(* [clear] keeps the newest arrival number of a bucket whose last entry
   took the next, unconsumed number (a resurrected id the node never
   numbered).  A request added after the clear shares that number, so it
   goes to the side list while the ring is empty — and its commit still
   finds and removes it. *)
let test_bq_commit_after_resurrect_clear_add () =
  let q = single () in
  ignore (Bq.add q (req ~client:1 ~ts:0));
  Bq.resurrect q (req ~client:2 ~ts:0);
  Bq.clear q;
  let r = req ~client:3 ~ts:0 in
  check_bool "added" true (Bq.add q r);
  check_int "queued" 1 (Bq.length q ~bucket:0);
  Bq.commit q r.id;
  check_bool "commit unqueues it" false (Bq.queued q r.id);
  check_int "bucket empty" 0 (Bq.length q ~bucket:0);
  check_int "nothing pending" 0 (Bq.pending q);
  Alcotest.(check (list int)) "nothing to cut" [] (ts_of (cut1 q ~max:10))

(* ------------------------------------------------------------------ *)
(* Bucket assignment *)

let prop_assignment_partition =
  QCheck.Test.make ~name:"every bucket assigned to exactly one leader" ~count:100
    QCheck.(triple (int_range 4 40) (int_range 0 50) (int_range 1 10))
    (fun (n, epoch, leaders_seed) ->
      let num_buckets = 16 * n in
      (* A deterministic non-empty leader subset. *)
      let leaders =
        Array.of_list
          (List.filter (fun i -> i mod (1 + (leaders_seed mod 3)) = 0 || i < 1) (List.init n (fun i -> i)))
      in
      let owner = Core.Bucket_assignment.assign ~n ~num_buckets ~epoch ~leaders in
      Array.length owner = num_buckets
      && Array.for_all (fun l -> Array.exists (fun x -> x = l) leaders) owner)

let test_assignment_rotation_coverage () =
  (* Over n consecutive epochs, every node receives every bucket at least
     once via the initial assignment (Lemma 5.4's base). *)
  let n = 6 in
  let num_buckets = 16 * n in
  let seen = Array.make_matrix n num_buckets false in
  for epoch = 0 to n - 1 do
    for node = 0 to n - 1 do
      List.iter
        (fun b -> seen.(node).(b) <- true)
        (Core.Bucket_assignment.init_buckets ~n ~num_buckets ~epoch ~node)
    done
  done;
  for node = 0 to n - 1 do
    for b = 0 to num_buckets - 1 do
      if not seen.(node).(b) then
        Alcotest.failf "node %d never initially assigned bucket %d" node b
    done
  done

let test_assignment_matches_eq1 () =
  (* Eq. (1): initBuckets(e,i) = { b | (b+e) ≡ i mod n }. *)
  let n = 5 and num_buckets = 80 and epoch = 3 in
  for node = 0 to n - 1 do
    let bs = Core.Bucket_assignment.init_buckets ~n ~num_buckets ~epoch ~node in
    List.iter
      (fun b -> check_int (Printf.sprintf "bucket %d owner" b) node ((b + epoch) mod n))
      bs
  done

let test_buckets_of_leader () =
  let n = 4 and epoch = 1 in
  let num_buckets = 8 in
  (* Figure 2's setting: 8 buckets, 2 leaders, 4 nodes, epoch 1. *)
  let leaders = [| 0; 2 |] in
  let all =
    List.concat_map
      (fun leader ->
        Core.Bucket_assignment.buckets_of_leader ~n ~num_buckets ~epoch ~leaders ~leader)
      [ 0; 2 ]
  in
  Alcotest.(check (list int)) "all buckets covered exactly once"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort compare all)

(* ------------------------------------------------------------------ *)
(* Segments *)

let config4 = Core.Config.pbft_default ~n:4

let test_segments_round_robin () =
  let leaders = [| 0; 1; 2 |] in
  let segs = Core.Segment.make_epoch ~config:config4 ~epoch:0 ~start_sn:0 ~leaders in
  check_int "one segment per leader" 3 (List.length segs);
  let all_sns =
    List.concat_map (fun (s : Core.Segment.t) -> Array.to_list s.seq_nrs) segs
    |> List.sort compare
  in
  let epoch_len = Core.Config.epoch_length config4 ~leaders:3 in
  Alcotest.(check (list int)) "segments partition the epoch"
    (List.init epoch_len (fun i -> i))
    all_sns;
  List.iter
    (fun (s : Core.Segment.t) ->
      Array.iteri
        (fun j sn ->
          check_int "round robin stride" (s.leader_index + (j * 3)) sn;
          check_bool "contains_sn" true (Core.Segment.contains_sn s sn);
          check_int "sn_index" j (Core.Segment.sn_index s sn))
        s.seq_nrs;
      check_bool "foreign sn rejected" false
        (Core.Segment.contains_sn s (s.seq_nrs.(0) + 1)))
    segs

let test_segments_epoch_length_grows () =
  let config = Core.Config.hotstuff_default ~n:32 in
  (* min segment 16 with 32 leaders -> epoch of 512, not 256. *)
  check_int "epoch grows" 512 (Core.Config.epoch_length config ~leaders:32);
  check_int "small leader set keeps min" 256 (Core.Config.epoch_length config ~leaders:4)

let prop_segment_buckets_partition =
  QCheck.Test.make ~name:"segments partition the buckets" ~count:50
    QCheck.(pair (int_range 4 16) (int_range 0 20))
    (fun (n, epoch) ->
      let config = Core.Config.pbft_default ~n in
      let leaders = Array.init ((n / 2) + 1) (fun i -> i) in
      let segs = Core.Segment.make_epoch ~config ~epoch ~start_sn:(epoch * 256) ~leaders in
      let all =
        List.concat_map (fun (s : Core.Segment.t) -> s.Core.Segment.buckets) segs
        |> List.sort compare
      in
      all = List.init (Core.Config.num_buckets config) (fun b -> b))

(* ------------------------------------------------------------------ *)
(* Leader policies *)

let mk_policy kind n =
  Core.Leader_policy.create { (Core.Config.pbft_default ~n) with Core.Config.leader_policy = kind }

let test_policy_simple () =
  let p = mk_policy Core.Config.Simple 7 in
  Core.Leader_policy.epoch_finished p ~epoch:0 ~failed:[ (3, 10) ] ();
  Alcotest.(check (list int)) "all nodes stay" [ 0; 1; 2; 3; 4; 5; 6 ]
    (Array.to_list (Core.Leader_policy.leaders p ~epoch:1))

let test_policy_blacklist () =
  let p = mk_policy Core.Config.Blacklist 7 in
  (* f = 2 for n = 7. *)
  Core.Leader_policy.epoch_finished p ~epoch:0 ~failed:[ (3, 10) ] ();
  let l1 = Array.to_list (Core.Leader_policy.leaders p ~epoch:1) in
  check_bool "node 3 excluded" false (List.mem 3 l1);
  check_int "six leaders" 6 (List.length l1);
  (* A second failure: both excluded (still <= f). *)
  Core.Leader_policy.epoch_finished p ~epoch:1 ~failed:[ (5, 300) ] ();
  let l2 = Array.to_list (Core.Leader_policy.leaders p ~epoch:2) in
  check_bool "3 and 5 excluded" true ((not (List.mem 3 l2)) && not (List.mem 5 l2));
  (* A third failure: only the f=2 most recent stay banned -> 3 returns. *)
  Core.Leader_policy.epoch_finished p ~epoch:2 ~failed:[ (0, 700) ] ();
  let l3 = Array.to_list (Core.Leader_policy.leaders p ~epoch:3) in
  check_bool "only two most recent banned" true (List.mem 3 l3);
  check_bool "0 banned" false (List.mem 0 l3);
  check_bool "5 banned" false (List.mem 5 l3);
  check_int "at least 2f+1 leaders" 5 (List.length l3)

let test_policy_backoff () =
  let p = mk_policy Core.Config.Backoff 5 in
  Core.Leader_policy.epoch_finished p ~epoch:0 ~failed:[ (2, 4) ] ();
  check_bool "banned after failure" true (Core.Leader_policy.is_banned p 2);
  let l = Array.to_list (Core.Leader_policy.leaders p ~epoch:1) in
  check_bool "excluded while banned" false (List.mem 2 l);
  (* Ban decreases linearly with clean epochs (ban period 4, decrease 1). *)
  let rec run_clean e =
    if Core.Leader_policy.is_banned p 2 then begin
      Core.Leader_policy.epoch_finished p ~epoch:e ~failed:[] ();
      run_clean (e + 1)
    end
    else e
  in
  let back_at = run_clean 1 in
  check_bool "eventually re-included" true (back_at <= 6);
  check_bool "re-included in leaders" true
    (List.mem 2 (Array.to_list (Core.Leader_policy.leaders p ~epoch:back_at)))

let test_policy_backoff_doubling () =
  let p = mk_policy Core.Config.Backoff 5 in
  Core.Leader_policy.epoch_finished p ~epoch:0 ~failed:[ (2, 4) ] ();
  (* Fail again while banned: the ban doubles (4*2-1 = 7). *)
  Core.Leader_policy.epoch_finished p ~epoch:1 ~failed:[ (2, 9) ] ();
  let clean_epochs_needed =
    let rec go e count =
      if Core.Leader_policy.is_banned p 2 then begin
        Core.Leader_policy.epoch_finished p ~epoch:e ~failed:[] ();
        go (e + 1) (count + 1)
      end
      else count
    in
    go 2 0
  in
  check_bool "doubled ban takes longer than initial" true (clean_epochs_needed >= 6)

let test_policy_straggler_aware () =
  let p = mk_policy Core.Config.Straggler_aware 7 in
  let stats ~straggler ~busy =
    List.init 7 (fun i ->
        {
          Core.Leader_policy.ls_leader = i;
          ls_batches = 8;
          ls_requests = (if i = straggler then 0 else busy);
        })
  in
  (* Under real load, a leader shipping nothing while others ship plenty is
     banned. *)
  Core.Leader_policy.epoch_finished p ~epoch:0 ~failed:[]
    ~stats:(stats ~straggler:4 ~busy:4096) ();
  check_bool "straggler banned" true (Core.Leader_policy.is_banned p 4);
  check_bool "busy leader kept" false (Core.Leader_policy.is_banned p 0);
  (* At low load (everyone near-idle), nobody is banned — empty batches are
     normal keep-alives then. *)
  let p2 = mk_policy Core.Config.Straggler_aware 7 in
  Core.Leader_policy.epoch_finished p2 ~epoch:0 ~failed:[]
    ~stats:(stats ~straggler:4 ~busy:10) ();
  check_bool "no ban at low load" false (Core.Leader_policy.is_banned p2 4);
  (* ⊥ evidence still counts, like BLACKLIST. *)
  let p3 = mk_policy Core.Config.Straggler_aware 7 in
  Core.Leader_policy.epoch_finished p3 ~epoch:0 ~failed:[ (2, 11) ] ();
  check_bool "crash evidence bans too" true (Core.Leader_policy.is_banned p3 2)

(* The leader policy is evaluated locally at every node from log-derived
   evidence alone (§3.4): two replicas fed identical evidence must stay in
   lockstep — identical snapshots (which checkpoint signatures cover) and
   identical leader sets — over any 100-epoch evidence stream.  A policy
   that consulted anything local (RNG, wall clock, insertion order) would
   wedge checkpoint quorums. *)
let prop_policy_determinism =
  let open QCheck in
  let n = 7 in
  let epoch_evidence =
    (* Per epoch: ⊥ evidence as (leader, sn) pairs. *)
    Gen.list_size (Gen.int_range 0 3) (Gen.pair (Gen.int_range 0 (n - 1)) (Gen.int_range 0 10_000))
  in
  Test.make ~name:"identical evidence keeps two policies in lockstep" ~count:30
    (make (Gen.list_size (Gen.return 100) epoch_evidence))
    (fun evidence ->
      List.for_all
        (fun kind ->
          let p1 = mk_policy kind n and p2 = mk_policy kind n in
          let ok = ref true in
          List.iteri
            (fun epoch failed ->
              Core.Leader_policy.epoch_finished p1 ~epoch ~failed ();
              Core.Leader_policy.epoch_finished p2 ~epoch ~failed ();
              if
                Core.Leader_policy.snapshot p1 <> Core.Leader_policy.snapshot p2
                || Core.Leader_policy.leaders p1 ~epoch:(epoch + 1)
                   <> Core.Leader_policy.leaders p2 ~epoch:(epoch + 1)
              then ok := false)
            evidence;
          !ok)
        [ Core.Config.Blacklist; Core.Config.Backoff ])

let test_policy_fixed () =
  let p = mk_policy (Core.Config.Fixed [ 0 ]) 5 in
  Core.Leader_policy.epoch_finished p ~epoch:0 ~failed:[ (0, 3) ] ();
  Alcotest.(check (list int)) "fixed stays fixed" [ 0 ]
    (Array.to_list (Core.Leader_policy.leaders p ~epoch:1))

let test_policy_snapshot_roundtrip () =
  (* A fresh policy restored from a snapshot must produce the same leader
     sets as the evolved original (checkpoint jump adopts policy state this
     way). *)
  List.iter
    (fun kind ->
      let p = mk_policy kind 7 in
      Core.Leader_policy.epoch_finished p ~epoch:0 ~failed:[ (2, 11); (5, 3) ] ();
      Core.Leader_policy.epoch_finished p ~epoch:1 ~failed:[ (2, 20) ] ();
      let q = mk_policy kind 7 in
      Core.Leader_policy.restore q (Core.Leader_policy.snapshot p);
      Alcotest.(check (list int))
        "restored policy yields identical leaders"
        (Array.to_list (Core.Leader_policy.leaders p ~epoch:2))
        (Array.to_list (Core.Leader_policy.leaders q ~epoch:2)))
    [ Core.Config.Simple; Core.Config.Backoff; Core.Config.Blacklist; Core.Config.Straggler_aware ];
  (* Kind or size mismatches are rejected, not silently accepted. *)
  let b = mk_policy Core.Config.Blacklist 7 in
  check_bool "mismatched snapshot raises" true
    (try
       Core.Leader_policy.restore b "backoff:0,0,0,0,0,0,0";
       false
     with Invalid_argument _ -> true);
  let small = mk_policy Core.Config.Blacklist 4 in
  check_bool "mismatched size raises" true
    (try
       Core.Leader_policy.restore small (Core.Leader_policy.snapshot b);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Log *)

let batch_of ts_list =
  Proto.Batch.make (Array.of_list (List.map (fun (c, ts) -> req ~client:c ~ts) ts_list))

let test_log_delivery_order_eq2 () =
  let log = Core.Log.create () in
  let deliveries = ref [] in
  let drain () =
    ignore
      (Core.Log.deliver_ready log ~on_batch:(fun ~sn ~first_request_sn batch ->
           deliveries := (sn, first_request_sn, Proto.Batch.length batch) :: !deliveries))
  in
  (* Commit out of order: 1 then 0 then 2. *)
  check_bool "commit 1" true (Core.Log.commit log ~sn:1 (Proto.Proposal.Batch (batch_of [ (1, 0); (1, 1) ])));
  drain ();
  check_int "nothing deliverable yet" 0 (List.length !deliveries);
  check_bool "commit 0" true (Core.Log.commit log ~sn:0 (Proto.Proposal.Batch (batch_of [ (2, 0) ])));
  drain ();
  check_bool "commit 2 nil" true (Core.Log.commit log ~sn:2 Proto.Proposal.Nil);
  check_bool "commit 3" true (Core.Log.commit log ~sn:3 (Proto.Proposal.Batch (batch_of [ (3, 0) ])));
  drain ();
  (* Eq 2: request sns are 0; then 1,2; nil contributes none; then 3. *)
  Alcotest.(check (list (triple int int int)))
    "delivery order and request sns"
    [ (0, 0, 1); (1, 1, 2); (3, 3, 1) ]
    (List.rev !deliveries);
  check_int "first undelivered" 4 (Core.Log.first_undelivered log);
  check_int "total delivered" 4 (Core.Log.total_delivered log)

let test_log_conflict_detection () =
  let log = Core.Log.create () in
  ignore (Core.Log.commit log ~sn:0 (Proto.Proposal.Batch (batch_of [ (1, 0) ])));
  check_bool "same value re-commit is no-op" false
    (Core.Log.commit log ~sn:0 (Proto.Proposal.Batch (batch_of [ (1, 0) ])));
  Alcotest.check_raises "conflicting commit raises"
    (Invalid_argument "Log.commit: conflicting proposals at sn 0 (SB agreement violation)")
    (fun () -> ignore (Core.Log.commit log ~sn:0 (Proto.Proposal.Batch (batch_of [ (9, 9) ]))))

let test_log_ranges () =
  let log = Core.Log.create () in
  ignore (Core.Log.commit log ~sn:0 (Proto.Proposal.Batch (batch_of [ (1, 0) ])));
  ignore (Core.Log.commit log ~sn:1 Proto.Proposal.Nil);
  ignore (Core.Log.commit log ~sn:2 (Proto.Proposal.Batch (batch_of [ (1, 1) ])));
  check_bool "range complete" true (Core.Log.range_complete log ~from_sn:0 ~to_sn:2);
  check_bool "range with gap" false (Core.Log.range_complete log ~from_sn:0 ~to_sn:3);
  Alcotest.(check (list int)) "nil entries" [ 1 ] (Core.Log.nil_entries log ~from_sn:0 ~to_sn:2);
  check_int "digest array" 3 (Array.length (Core.Log.batch_digests log ~from_sn:0 ~to_sn:2))

let drain log =
  ignore (Core.Log.deliver_ready log ~on_batch:(fun ~sn:_ ~first_request_sn:_ _ -> ()))

let test_log_prune () =
  let log = Core.Log.create () in
  for sn = 0 to 9 do
    ignore (Core.Log.commit log ~sn (Proto.Proposal.Batch (batch_of [ (1, sn) ])))
  done;
  (* Commit one entry ahead of a gap; it must survive every prune. *)
  ignore (Core.Log.commit log ~sn:11 (Proto.Proposal.Batch (batch_of [ (1, 99) ])));
  drain log;
  check_int "frontier at gap" 10 (Core.Log.first_undelivered log);
  check_int "one committed ahead" 1 (Core.Log.committed_ahead log);
  (* Prune below 6: exactly entries 0-5 go. *)
  check_int "pruned 6 entries" 6 (Core.Log.prune log ~below_sn:6);
  check_int "pruned_below" 6 (Core.Log.pruned_below log);
  check_bool "pruned entry absent" true (Core.Log.get log ~sn:3 = None);
  check_bool "retained entry present" true (Core.Log.get log ~sn:7 <> None);
  check_int "committed_ahead robust to pruning" 1 (Core.Log.committed_ahead log);
  (* Prune clamps to the frontier: undelivered positions never go. *)
  check_int "clamped prune" 4 (Core.Log.prune log ~below_sn:100);
  check_int "pruned_below clamped" 10 (Core.Log.pruned_below log);
  check_bool "committed-ahead entry survives" true (Core.Log.get log ~sn:11 <> None);
  (* Late retransmission of a pruned position is dropped, not resurrected. *)
  check_bool "re-commit below pruned_below dropped" false
    (Core.Log.commit log ~sn:2 (Proto.Proposal.Batch (batch_of [ (1, 2) ])));
  check_bool "still absent" true (Core.Log.get log ~sn:2 = None);
  (* Idempotent. *)
  check_int "second prune removes nothing" 0 (Core.Log.prune log ~below_sn:6)

let test_log_jump () =
  let log = Core.Log.create () in
  for sn = 0 to 3 do
    ignore (Core.Log.commit log ~sn (Proto.Proposal.Batch (batch_of [ (1, sn) ])))
  done;
  drain log;
  (* An entry committed ahead of the jump target must deliver afterwards. *)
  ignore (Core.Log.commit log ~sn:21 (Proto.Proposal.Batch (batch_of [ (2, 0); (2, 1) ])));
  Core.Log.jump log ~to_sn:20 ~total_delivered:57;
  check_int "frontier jumped" 20 (Core.Log.first_undelivered log);
  check_int "pruned below jump" 20 (Core.Log.pruned_below log);
  check_int "request numbering adopted" 57 (Core.Log.total_delivered log);
  check_int "nothing committed-ahead lost" 1 (Core.Log.committed_ahead log);
  ignore (Core.Log.commit log ~sn:20 (Proto.Proposal.Batch (batch_of [ (3, 0) ])));
  let seen = ref [] in
  ignore
    (Core.Log.deliver_ready log ~on_batch:(fun ~sn ~first_request_sn _ ->
         seen := (sn, first_request_sn) :: !seen));
  Alcotest.(check (list (pair int int)))
    "post-jump deliveries resume at adopted count"
    [ (20, 57); (21, 58) ]
    (List.rev !seen);
  (* Jump not ahead of the frontier is a no-op. *)
  Core.Log.jump log ~to_sn:5 ~total_delivered:0;
  check_int "stale jump ignored" 22 (Core.Log.first_undelivered log)

(* ------------------------------------------------------------------ *)
(* Watermarks *)

let test_watermarks_window () =
  let w = Core.Watermarks.create ~window:4 in
  let id ts = { Proto.Request.client = 9; ts } in
  let valid w id = Core.Watermarks.status w id = Core.Watermarks.Fresh in
  check_bool "ts 0 valid" true (valid w (id 0));
  check_bool "ts 3 valid" true (valid w (id 3));
  check_bool "ts 4 too far" false (valid w (id 4));
  Core.Watermarks.note_delivered w (id 0);
  check_int "floor advanced" 1 (Core.Watermarks.floor w 9);
  check_bool "ts 4 now valid" true (valid w (id 4));
  check_bool "ts 0 now below window" false (valid w (id 0))

let test_watermarks_out_of_order () =
  let w = Core.Watermarks.create ~window:8 in
  let id ts = { Proto.Request.client = 3; ts } in
  Core.Watermarks.note_delivered w (id 2);
  Core.Watermarks.note_delivered w (id 1);
  check_int "floor waits for 0" 0 (Core.Watermarks.floor w 3);
  check_bool "delivered 2" true (Core.Watermarks.delivered w (id 2));
  check_bool "not delivered 0" false (Core.Watermarks.delivered w (id 0));
  Core.Watermarks.note_delivered w (id 0);
  check_int "floor jumps over prefix" 3 (Core.Watermarks.floor w 3);
  check_bool "0 delivered below floor" true (Core.Watermarks.delivered w (id 0))

let prop_watermarks_permutation =
  QCheck.Test.make ~name:"floor reaches n after any delivery permutation" ~count:100
    QCheck.(int_range 1 30)
    (fun n ->
      let w = Core.Watermarks.create ~window:64 in
      let order = Array.init n (fun i -> i) in
      let rng = Sim.Rng.create ~seed:(Int64.of_int n) in
      Sim.Rng.shuffle rng order;
      Array.iter
        (fun ts -> Core.Watermarks.note_delivered w { Proto.Request.client = 1; ts })
        order;
      Core.Watermarks.floor w 1 = n)

(* The ring-overflow degrade path (watermarks.ml): a timestamp at or past
   [floor + capacity] cannot be represented in the bitmap, so the tracker
   advances the floor instead of setting a bit.  The safety contract is that
   [delivered] is monotone — once it has answered [true] for an id, no later
   [note_delivered] (however far it jumps the floor) may flip it back to
   [false], because a node trusts [true] to mean "never deliver this request
   again".  False negatives are allowed (they cause a redundant proposal
   attempt, rejected elsewhere); un-delivering is not. *)
let prop_watermarks_overflow_no_duplicate =
  (* window 8 -> capacity 32; ts up to 400 drives the degrade path hard,
     including repeated overflow jumps and bit aliasing across ring wraps. *)
  QCheck.Test.make ~name:"ring overflow never un-delivers (no duplicate delivery)" ~count:300
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 2) (int_bound 400)))
    (fun ops ->
      let w = Core.Watermarks.create ~window:8 in
      let seen = Hashtbl.create 64 in
      List.for_all
        (fun (client, ts) ->
          let id = { Proto.Request.client; ts } in
          Core.Watermarks.note_delivered w id;
          (* A just-noted id must read as delivered (the pre-fix degrade
             path jumped the floor to ts + 1 - capacity without setting the
             triggering bit, leaving its own delivery unrecorded). *)
          if not (Core.Watermarks.delivered w id) then false
          else begin
            Hashtbl.replace seen (client, ts) ();
            (* Every id ever reported delivered must still be reported so. *)
            Hashtbl.fold
              (fun (client, ts) () ok ->
                ok && Core.Watermarks.delivered w { Proto.Request.client; ts })
              seen true
          end)
        ops)

(* The converse direction: [delivered] may answer [true] above the floor
   only for timestamps actually noted.  Before the degrade path cleared
   stale ring bits, a floor jump left bits of the old window set, and a
   fresh timestamp aliasing one of them ([mod capacity]) read as already
   delivered — a false positive that silently suppresses a live request
   (exactly-once's liveness half).  Scan the whole representable window
   after every operation. *)
let prop_watermarks_overflow_no_false_positive =
  QCheck.Test.make
    ~name:"ring overflow never fabricates a delivery (no false positive)" ~count:300
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 2) (int_bound 400)))
    (fun ops ->
      let window = 8 in
      let capacity = 4 * window in
      let w = Core.Watermarks.create ~window in
      let noted = Hashtbl.create 64 in
      List.for_all
        (fun (client, ts) ->
          Core.Watermarks.note_delivered w { Proto.Request.client; ts };
          Hashtbl.replace noted (client, ts) ();
          List.for_all
            (fun client ->
              let floor = Core.Watermarks.floor w client in
              let ok = ref true in
              for ts = floor to floor + capacity - 1 do
                if
                  Core.Watermarks.delivered w { Proto.Request.client; ts }
                  && not (Hashtbl.mem noted (client, ts))
                then ok := false
              done;
              !ok)
            [ 0; 1; 2 ])
        ops)

(* The tracker against a reference set: deliveries far outside any
   acceptance window (up to 100 windows ahead of the floor) grow the ring
   instead of losing information, so [delivered] and [floor] are exact. *)
let prop_watermarks_exact =
  let window = 8 in
  QCheck.Test.make ~name:"delivered and floor match a reference set" ~count:200
    QCheck.(list_of_size Gen.(1 -- 80) (pair (int_bound 2) (int_bound (100 * window))))
    (fun ops ->
      let w = Core.Watermarks.create ~window in
      let noted = Hashtbl.create 64 in
      List.for_all
        (fun (client, ts) ->
          Core.Watermarks.note_delivered w { Proto.Request.client; ts };
          Hashtbl.replace noted (client, ts) ();
          let floor = ref 0 in
          while Hashtbl.mem noted (client, !floor) do
            incr floor
          done;
          Core.Watermarks.floor w client = !floor
          && List.for_all
               (fun ts ->
                 Core.Watermarks.delivered w { Proto.Request.client; ts }
                 = Hashtbl.mem noted (client, ts))
               (List.init ((101 * window) + 1) Fun.id))
        ops)

(* Reads never add a client: an unknown one reads as floor 0 with nothing
   delivered or proposed, and a thousand of them leave the table as it was.
   Nor does a proposal the tracker ignores. *)
let test_watermarks_reads_do_not_insert () =
  let w = Core.Watermarks.create ~window:8 in
  let id client ts = { Proto.Request.client; ts } in
  let words () = Obj.reachable_words (Obj.repr w) in
  let empty = words () in
  for client = 0 to 999 do
    check_int "unknown floor" 0 (Core.Watermarks.floor w client);
    check_bool "unknown fresh" true
      (Core.Watermarks.status w (id client 7) = Core.Watermarks.Fresh);
    check_bool "unknown past window" true
      (Core.Watermarks.status w (id client 8) = Core.Watermarks.Outside_window);
    check_bool "unknown undelivered" false (Core.Watermarks.delivered w (id client 0));
    check_int "unknown unproposed" Core.Watermarks.no_proposal
      (Core.Watermarks.proposed_at w (id client 0))
  done;
  check_int "table unchanged by reads" empty (words ());
  Core.Watermarks.note_proposed w (id 5 8) ~sn:11;
  check_int "a proposal past the window adds nothing" empty (words ());
  Core.Watermarks.note_proposed w (id 5 3) ~sn:11;
  check_bool "a proposal adds its client" true (words () > empty);
  check_int "noted sn" 11 (Core.Watermarks.proposed_at w (id 5 3));
  check_bool "noted reads as proposed" true
    (Core.Watermarks.status w (id 5 3) = Core.Watermarks.Proposed)

(* The per-client proposal record against a reference table of id -> sn
   with [Node]'s old semantics: a fresh request's sn is noted, delivery
   removes it, an epoch change clears all.  Operations name a timestamp by
   its offset from the client's floor: proposals land up to the window
   above it (and a little outside), deliveries near it, so floors advance
   past noted slots and rings grow (from 2 slots) while holding entries. *)
let prop_watermarks_proposals_exact =
  let window = 32 and clients = [ 0; 1; 2 ] in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            map3
              (fun c d sn -> `Propose (c, d, sn))
              (int_bound 2) (int_range (-2) (window + 2)) (int_bound 50) );
          (5, map2 (fun c d -> `Deliver (c, d)) (int_bound 2) (int_bound 6));
          (1, return `Clear);
        ])
  in
  QCheck.Test.make ~name:"proposals match a reference table" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 150) op_gen))
    (fun ops ->
      let w = Core.Watermarks.create ~window in
      let delivered = Hashtbl.create 64 and proposed = Hashtbl.create 64 in
      let floor c =
        let f = ref 0 in
        while Hashtbl.mem delivered (c, !f) do
          incr f
        done;
        !f
      in
      List.for_all
        (fun op ->
          (match op with
          | `Propose (c, d, sn) ->
              let ts = max 0 (floor c + d) in
              if (not (Hashtbl.mem delivered (c, ts))) && ts < floor c + window then
                Hashtbl.replace proposed (c, ts) sn;
              Core.Watermarks.note_proposed w { Proto.Request.client = c; ts } ~sn
          | `Deliver (c, d) ->
              let ts = floor c + d in
              Hashtbl.replace delivered (c, ts) ();
              Hashtbl.remove proposed (c, ts);
              Core.Watermarks.note_delivered w { Proto.Request.client = c; ts }
          | `Clear ->
              Hashtbl.reset proposed;
              Core.Watermarks.clear_proposals w);
          List.for_all
            (fun c ->
              List.for_all
                (fun ts ->
                  let id = { Proto.Request.client = c; ts } in
                  let expect =
                    Option.value
                      (Hashtbl.find_opt proposed (c, ts))
                      ~default:Core.Watermarks.no_proposal
                  in
                  Core.Watermarks.proposed_at w id = expect
                  && (Core.Watermarks.status w id = Core.Watermarks.Proposed)
                     = (expect <> Core.Watermarks.no_proposal))
                (List.init (floor c + (2 * window)) Fun.id))
            clients)
        ops)

(* [clear_proposals] forgets only proposals: a delivery above the floor
   keeps its mark, and the floor still waits for the gap below it. *)
let test_watermarks_clear_keeps_delivered () =
  let w = Core.Watermarks.create ~window:8 in
  let id ts = { Proto.Request.client = 5; ts } in
  Core.Watermarks.note_delivered w (id 3);
  Core.Watermarks.note_proposed w (id 1) ~sn:7;
  Core.Watermarks.clear_proposals w;
  check_bool "3 still delivered" true (Core.Watermarks.delivered w (id 3));
  check_bool "3 reads as delivered" true
    (Core.Watermarks.status w (id 3) = Core.Watermarks.Delivered);
  check_int "proposal forgotten" Core.Watermarks.no_proposal (Core.Watermarks.proposed_at w (id 1));
  check_bool "1 fresh again" true (Core.Watermarks.status w (id 1) = Core.Watermarks.Fresh);
  check_int "floor waits for 0" 0 (Core.Watermarks.floor w 5);
  List.iter (fun ts -> Core.Watermarks.note_delivered w (id ts)) [ 0; 1; 2 ];
  check_int "floor passes the kept mark" 4 (Core.Watermarks.floor w 5)

(* [Watermarks.propose], withdrawn again when it noted the sn: its answer
   leaves the tracker as it was. *)
let try_propose w id ~sn =
  let answer = Core.Watermarks.propose w id ~sn in
  if answer = Core.Watermarks.Noted then Core.Watermarks.withdraw w id;
  answer

(* The whole tracker against a naive model: a delivered set and an
   id -> sn table per client.  Over 64 clients, so the client table grows
   and probes collide; offsets from the floor reach far past a fresh ring
   (2 slots) and past the window, so blocks grow while the table holds
   them.  After every operation the touched client is read at every
   timestamp from 0 to well past its floor and its furthest delivery. *)
let prop_watermarks_model =
  let window = 16 and clients = 150 in
  let id_of c = 100_000 + (c * 37) in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 5,
            map3
              (fun c d sn -> `Propose (c, d, sn))
              (int_bound (clients - 1)) (int_range (-2) (window + 2)) (int_bound 50) );
          (4, map2 (fun c d -> `Deliver (c, d)) (int_bound (clients - 1)) (int_bound 4));
          (1, map2 (fun c d -> `Deliver (c, d)) (int_bound (clients - 1)) (int_bound (12 * window)));
          (3, map2 (fun c d -> `Read (c, d)) (int_bound (clients - 1)) (int_range (-3) (3 * window)));
          (1, return `Clear);
        ])
  in
  QCheck.Test.make ~name:"tracker matches a naive model" ~count:100
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 400) op_gen))
    (fun ops ->
      let w = Core.Watermarks.create ~window in
      let delivered = Hashtbl.create 64 and proposed = Hashtbl.create 64 in
      let highest = Hashtbl.create 64 in
      let floor c =
        let f = ref 0 in
        while Hashtbl.mem delivered (c, !f) do
          incr f
        done;
        !f
      in
      let agrees c ts =
        let id = { Proto.Request.client = id_of c; ts } in
        let is_delivered = Hashtbl.mem delivered (c, ts) in
        let sn = Option.value (Hashtbl.find_opt proposed (c, ts)) ~default:(-1) in
        let status =
          if is_delivered then Core.Watermarks.Delivered
          else if ts >= floor c + window then Core.Watermarks.Outside_window
          else if sn >= 0 then Core.Watermarks.Proposed
          else Core.Watermarks.Fresh
        in
        let acceptable =
          status = Core.Watermarks.Fresh || status = Core.Watermarks.Proposed
        in
        let proposal s =
          if not acceptable then Core.Watermarks.Refused
          else if sn = s then Core.Watermarks.Kept
          else if sn < 0 then Core.Watermarks.Noted
          else Core.Watermarks.Refused
        in
        Core.Watermarks.delivered w id = is_delivered
        && Core.Watermarks.status w id = status
        && Core.Watermarks.proposed_at w id = (if sn >= 0 then sn else Core.Watermarks.no_proposal)
        && try_propose w id ~sn:3 = proposal 3
        && try_propose w id ~sn:(sn + 1) = proposal (sn + 1)
      in
      let client_agrees c =
        let hi = max (floor c) (Option.value (Hashtbl.find_opt highest c) ~default:0) in
        Core.Watermarks.floor w (id_of c) = floor c
        && List.for_all (agrees c) (List.init (hi + (2 * window)) Fun.id)
      in
      List.for_all
        (fun op ->
          match op with
          | `Propose (c, d, sn) ->
              let ts = max 0 (floor c + d) in
              if (not (Hashtbl.mem delivered (c, ts))) && ts < floor c + window then
                Hashtbl.replace proposed (c, ts) sn;
              Core.Watermarks.note_proposed w { Proto.Request.client = id_of c; ts } ~sn;
              client_agrees c
          | `Deliver (c, d) ->
              let ts = floor c + d in
              Hashtbl.replace delivered (c, ts) ();
              Hashtbl.remove proposed (c, ts);
              Hashtbl.replace highest c
                (max ts (Option.value (Hashtbl.find_opt highest c) ~default:0));
              Core.Watermarks.note_delivered w { Proto.Request.client = id_of c; ts };
              client_agrees c
          | `Read (c, d) -> agrees c (max 0 (floor c + d))
          | `Clear ->
              Hashtbl.reset proposed;
              Core.Watermarks.clear_proposals w;
              true)
        ops
      && List.for_all client_agrees (List.init clients Fun.id))

(* ------------------------------------------------------------------ *)
(* Allocation guards: per-request and per-vote paths allocate nothing once
   their state exists. *)

let test_watermarks_allocate_nothing () =
  let w = Core.Watermarks.create ~window:512 in
  let id ts = { Proto.Request.client = 7; ts } in
  let ids = Array.init 10_001 id in
  Core.Watermarks.note_delivered w ids.(0);
  check_no_alloc "Watermarks.status"
    (words_per_call ~n:10_000 (fun i -> ignore (Core.Watermarks.status w ids.(i))));
  check_no_alloc "Watermarks.delivered"
    (words_per_call ~n:10_000 (fun i -> ignore (Core.Watermarks.delivered w ids.(i))));
  (* Pairwise swapped (2, 1, 4, 3, ...): out of order, yet inside the ring. *)
  check_no_alloc "Watermarks.note_delivered"
    (words_per_call ~n:10_000 (fun i ->
         Core.Watermarks.note_delivered w ids.(if i land 1 = 1 then i + 1 else i - 1)));
  check_int "floor" 10_001 (Core.Watermarks.floor w 7)

(* A warm client's proposal, asked about and noted inside its ring. *)
let test_watermarks_proposals_allocate_nothing () =
  let w = Core.Watermarks.create ~window:512 in
  let ids = Array.init 64 (fun ts -> { Proto.Request.client = 7; ts }) in
  Core.Watermarks.note_proposed w ids.(63) ~sn:0;
  check_no_alloc "Watermarks.note_proposed"
    (words_per_call ~n:10_000 (fun i -> Core.Watermarks.note_proposed w ids.(i land 63) ~sn:i));
  check_no_alloc "Watermarks.proposed_at"
    (words_per_call ~n:10_000 (fun i -> ignore (Core.Watermarks.proposed_at w ids.(i land 63))));
  check_no_alloc "Watermarks.status of a proposed request"
    (words_per_call ~n:10_000 (fun i -> ignore (Core.Watermarks.status w ids.(i land 63))));
  check_int "last noted sn" 10_000 (Core.Watermarks.proposed_at w ids.(10_000 land 63));
  Core.Watermarks.clear_proposals w;
  (* Noted, kept on the next call at the same sn, then withdrawn. *)
  check_no_alloc "Watermarks.propose and withdraw"
    (words_per_call ~n:10_000 (fun i ->
         let id = ids.(i land 63) in
         ignore (Core.Watermarks.propose w id ~sn:i);
         ignore (Core.Watermarks.propose w id ~sn:i);
         Core.Watermarks.withdraw w id));
  check_int "withdrawn" Core.Watermarks.no_proposal (Core.Watermarks.proposed_at w ids.(0))

(* Index hits: asking whether a request is queued, and committing it. *)
let test_bq_hits_allocate_nothing () =
  let q = Bq.create ~num_buckets:4 in
  let reqs = Array.init 10_001 (fun ts -> req ~client:(1 + (ts land 7)) ~ts) in
  Array.iter (fun r -> ignore (Bq.add q r)) reqs;
  let id i = reqs.(i).Proto.Request.id in
  check_no_alloc "Bucket_queue.queued"
    (words_per_call ~n:10_000 (fun i -> ignore (Bq.queued q (id i))));
  check_no_alloc "Bucket_queue.commit" (words_per_call ~n:10_000 (fun i -> Bq.commit q (id i)));
  check_int "one left" 1 (Bq.pending q)

let test_votes_add_allocates_nothing () =
  let n = 64 in
  let digest = Iss_crypto.Hash.of_int 1 in
  let tallies =
    Array.init 200 (fun _ ->
        let v = Pbft.Votes.create ~n in
        ignore (Pbft.Votes.add v ~view:0 ~node:0 digest);
        v)
  in
  let words =
    words_per_call ~n:200 (fun i ->
        for node = 1 to n - 1 do
          ignore (Pbft.Votes.add tallies.(i - 1) ~view:0 ~node digest)
        done)
    /. float_of_int (n - 1)
  in
  check_no_alloc "Votes.add" words;
  check_int "every vote counted" n (Pbft.Votes.count tallies.(0) ~view:0 digest)

(* ------------------------------------------------------------------ *)
(* Proposal validation (§4.2 principle 3)

   The follower-side checks, called the way an orderer calls them: through
   the [validate_proposal] of the ctx the node hands its orderer factory.
   The orderers themselves are idle stand-ins, so nothing but the calls
   below touches the node. *)

(* A clock no test below advances: the node's timers never fire. *)
let idle_clock () = Core.Orderer_intf.Clock.of_engine (Sim.Engine.create ())

let idle_orderer =
  { Core.Orderer_intf.start = ignore; on_message = (fun ~src:_ _ -> ()); stop = ignore }

(* Node 0 of a fresh 4-node ISS-PBFT cluster, judging leader 1's segment
   (sns 1, 5, 9, ...) through the ctx the node hands that orderer. *)
type validator = {
  node : Core.Node.t;
  ctx : Core.Orderer_intf.ctx;
  seg : Core.Segment.t;
  num_buckets : int;
}

let validator () =
  let config = Core.Config.pbft_default ~n:4 in
  let ctxs = ref [] in
  let orderer_factory ctx seg =
    ctxs := (ctx, seg) :: !ctxs;
    idle_orderer
  in
  let node =
    Core.Node.create ~config ~id:0 ~clock:(idle_clock ())
      ~send:(fun ~dst:_ _ -> ())
      ~orderer_factory ()
  in
  Core.Node.start node;
  let ctx, seg = List.find (fun (_, s) -> s.Core.Segment.leader = 1) !ctxs in
  { node; ctx; seg; num_buckets = Core.Config.num_buckets config }

(* The first request of [client] from timestamp [from] on whose bucket the
   validator's segment owns (or, with [~in_seg:false], does not own). *)
let pick v ?(in_seg = true) ?signed ~client from =
  let rec go ts =
    let bucket = Proto.Request.bucket_of_id ~num_buckets:v.num_buckets { Proto.Request.client; ts } in
    if Core.Segment.owns_bucket v.seg bucket = in_seg then
      Proto.Request.make ~client ~ts ?signed ~submitted_at:0 ()
    else go (ts + 1)
  in
  go from

let test_validate_proposal_verdicts () =
  let v = validator () in
  let node = v.node and ctx = v.ctx and seg = v.seg and num_buckets = v.num_buckets in
  let config = Core.Node.config node in
  let sn k = seg.Core.Segment.seq_nrs.(k) in
  let pick = pick v in
  let batch reqs = Proto.Proposal.Batch (Proto.Batch.make (Array.of_list reqs)) in
  let verdict =
    Alcotest.testable
      (fun fmt v ->
        Format.pp_print_string fmt
          (match v with
          | Core.Orderer_intf.Accept -> "Accept"
          | Core.Orderer_intf.Reject -> "Reject"
          | Core.Orderer_intf.Reject_malicious -> "Reject_malicious"))
      ( = )
  in
  let expect label msg v ~sn:s reqs =
    Alcotest.check verdict (label ^ ": " ^ msg) v
      (ctx.Core.Orderer_intf.validate_proposal seg ~sn:s (batch reqs))
  in
  let verdicts label =
    let expect = expect label in
    let a = pick ~client:1 0 and b = pick ~client:2 0 in
    expect "fresh batch" Core.Orderer_intf.Accept ~sn:(sn 1) [ a; b ];
    expect "same batch, same sn" Core.Orderer_intf.Accept ~sn:(sn 1) [ a; b ];
    let c = pick ~client:3 0 in
    expect "overlap at another sn" Core.Orderer_intf.Reject ~sn:(sn 2) [ c; b ];
    let far = pick ~client:4 Core.Config.client_watermark_window in
    expect "outside the watermark window" Core.Orderer_intf.Reject ~sn:(sn 3) [ far ];
    let delivered = pick ~client:5 0 in
    ctx.Core.Orderer_intf.announce ~sn:0 (batch [ delivered ]);
    expect "already delivered" Core.Orderer_intf.Reject ~sn:(sn 3) [ delivered ];
    let stray = pick ~in_seg:false ~client:6 0 in
    expect "out of the segment's buckets" Core.Orderer_intf.Reject_malicious ~sn:(sn 3)
      [ c; stray ];
    (* Neither rejection left [c] recorded: it is accepted at yet another sn. *)
    let d = pick ~client:7 0 in
    expect "rejected batches leave no residue" Core.Orderer_intf.Accept ~sn:(sn 4) [ c; d ];
    expect "a prefix before a late failure leaves no residue" Core.Orderer_intf.Reject ~sn:(sn 5)
      [ pick ~client:8 0; far ];
    expect "... so its clean request is accepted elsewhere" Core.Orderer_intf.Accept ~sn:(sn 6)
      [ pick ~client:8 0 ];
    (* Signatures alone: each request below is fresh and in one of the
       segment's buckets, so only its signature can sink it. *)
    expect "unsigned request" Core.Orderer_intf.Reject_malicious ~sn:(sn 7)
      [ pick ~signed:false ~client:9 0 ];
    let fabricated =
      let rec go sn =
        let r = Runner.Adversary.fabricated_request ~attacker:1 ~sn in
        let bucket = Proto.Request.bucket_of_id ~num_buckets r.Proto.Request.id in
        if Core.Segment.owns_bucket seg bucket then r
        else go (sn + 1)
      in
      go 0
    in
    expect "the adversary's fabricated request" Core.Orderer_intf.Reject_malicious ~sn:(sn 7)
      [ fabricated ];
    let client = fabricated.Proto.Request.id.Proto.Request.client in
    expect "... accepted once its client signs it" Core.Orderer_intf.Accept ~sn:(sn 7)
      [ Proto.Request.sign (Iss_crypto.Signature.genkey ~id:client) fabricated ]
  in
  verdicts "epoch 0";
  (* ⊥ at every other epoch-0 sn finishes the epoch.  The epoch-0 segment
     keeps its own bucket map, so its ctx judges as it did. *)
  for s = 1 to Core.Config.epoch_length config ~leaders:4 - 1 do
    ctx.Core.Orderer_intf.announce ~sn:s Proto.Proposal.Nil
  done;
  check_int "node entered epoch 1" 1 (Core.Node.current_epoch node);
  verdicts "epoch 1, epoch-0 segment"

(* Today's validation in two passes, as a reference: check every request
   with reads only, then note the whole batch once it is accepted. *)
let two_pass_verdict w ~malicious ~sn reqs =
  let module W = Core.Watermarks in
  let rec check i =
    if i = Array.length reqs then Core.Orderer_intf.Accept
    else
      let r = reqs.(i) in
      if malicious r then Core.Orderer_intf.Reject_malicious
      else
        match W.status w r.Proto.Request.id with
        | W.Fresh -> check (i + 1)
        | W.Proposed when W.proposed_at w r.id = sn -> check (i + 1)
        | _ -> Core.Orderer_intf.Reject
  in
  let verdict = check 0 in
  if verdict = Core.Orderer_intf.Accept then
    Array.iter (fun (r : Proto.Request.t) -> W.note_proposed w r.id ~sn) reqs;
  verdict

(* One-probe validation with rollback against [two_pass_verdict] on a
   reference tracker.  Random batches draw from a small pool of good
   requests, so they repeat requests inside a batch and across sns, and
   some re-validate the previous batch at its sn; most carry one failing
   request at a random position: delivered, outside the window, proposed
   at another sn, unsigned, or in a foreign bucket.  After every batch
   the verdict, and [status], [proposed_at] and [floor] of every request
   and client used, match the reference; after a rejection they also
   match what they were before the batch. *)
let prop_validation_rollback =
  let causes = 6 (* the five failures, or none *) in
  let step_gen =
    QCheck.Gen.(
      quad (int_bound 2) (list_size (int_range 0 8) (int_bound 11))
        (pair (int_bound (causes - 1)) (int_bound 8))
        (frequency [ (4, return false); (1, return true) ]))
  in
  QCheck.Test.make ~name:"one-probe validation matches two passes, rejections leave no trace"
    ~count:60
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 25) step_gen))
    (fun steps ->
      let module W = Core.Watermarks in
      let v = validator () in
      let pick = pick v in
      let sn k = v.seg.Core.Segment.seq_nrs.(k) in
      let w = Core.Node.watermarks v.node in
      let window = W.window w in
      let reference = W.create ~window in
      let malicious r =
        (not (Proto.Request.signature_valid r))
        || not
             (Core.Segment.owns_bucket v.seg
                (Proto.Request.bucket_of_id ~num_buckets:v.num_buckets r.Proto.Request.id))
      in
      let ids = Hashtbl.create 64 in
      let use reqs = Array.iter (fun (r : Proto.Request.t) -> Hashtbl.replace ids r.id ()) reqs in
      let judge ~sn reqs =
        use reqs;
        let expect = two_pass_verdict reference ~malicious ~sn reqs in
        let got =
          v.ctx.Core.Orderer_intf.validate_proposal v.seg ~sn
            (Proto.Proposal.Batch (Proto.Batch.make reqs))
        in
        (expect, got)
      in
      let snapshot w =
        Hashtbl.fold
          (fun (id : Proto.Request.id) () acc ->
            (id, W.status w id, W.proposed_at w id, W.floor w id.client) :: acc)
          ids []
        |> List.sort compare
      in
      (* Four clients' first three in-segment requests each. *)
      let pool =
        Array.concat
          (List.init 4 (fun c ->
               let a = pick ~client:(c + 1) 0 in
               let b = pick ~client:(c + 1) (a.Proto.Request.id.ts + 1) in
               [| a; b; pick ~client:(c + 1) (b.id.ts + 1) |]))
      in
      (* Client 5's first two requests are delivered at sn 0; client 6's
         first request waits, proposed at the last sn of the segment. *)
      let d0 = pick ~client:5 0 in
      let delivered = [| d0; pick ~client:5 (d0.id.ts + 1) |] in
      v.ctx.Core.Orderer_intf.announce ~sn:0 (Proto.Proposal.Batch (Proto.Batch.make delivered));
      Array.iter (fun (r : Proto.Request.t) -> W.note_delivered reference r.id) delivered;
      let elsewhere = pick ~client:6 0 in
      let anchor_sn = sn (Array.length v.seg.Core.Segment.seq_nrs - 1) in
      let setup = judge ~sn:anchor_sn [| elsewhere |] in
      let failing cause client =
        match cause with
        | 0 -> Some delivered.(client land 1)
        | 1 -> Some (pick ~client:(1 + (client land 3)) window)
        | 2 -> Some elsewhere
        | 3 -> Some (pick ~signed:false ~client:(7 + (client land 1)) 0)
        | 4 -> Some (pick ~in_seg:false ~client:(1 + (client land 3)) 0)
        | _ -> None
      in
      let last = ref (sn 0, [||]) in
      setup = (Core.Orderer_intf.Accept, Core.Orderer_intf.Accept)
      && List.for_all
           (fun (k, picks, (cause, pos), again) ->
             let s, reqs =
               if again then !last
               else begin
                 let good = List.map (fun i -> pool.(i)) picks in
                 let reqs =
                   match failing cause pos with
                   | None -> good
                   | Some bad ->
                       let at = pos mod (List.length good + 1) in
                       List.filteri (fun i _ -> i < at) good
                       @ (bad :: List.filteri (fun i _ -> i >= at) good)
                 in
                 (sn k, Array.of_list reqs)
               end
             in
             last := (s, reqs);
             use reqs;
             let before = snapshot w in
             let expect, got = judge ~sn:s reqs in
             let after = snapshot w in
             expect = got
             && after = snapshot reference
             && (got = Core.Orderer_intf.Accept || after = before))
           steps)

(* Validation checks and notes a request in one probe, with no closure or
   record per request: accepting 64 requests costs no more minor words
   than accepting one.  A rejected copy of each batch first gives the
   clients their tracker blocks, so both acceptances run on warm state. *)
let test_validate_allocates_per_batch () =
  let v = validator () in
  let sn k = v.seg.Core.Segment.seq_nrs.(k) in
  let unsigned = pick v ~signed:false ~client:99 0 in
  let batch reqs = Proto.Proposal.Batch (Proto.Batch.make reqs) in
  let accept_words k reqs =
    let judge reqs = v.ctx.Core.Orderer_intf.validate_proposal v.seg ~sn:(sn k) reqs in
    let rejected = batch (Array.append reqs [| unsigned |]) and accepted = batch reqs in
    check_bool "warm-up rejected" true (judge rejected = Core.Orderer_intf.Reject_malicious);
    let before = Gc.minor_words () in
    let verdict = judge accepted in
    let words = Gc.minor_words () -. before in
    check_bool "accepted" true (verdict = Core.Orderer_intf.Accept);
    words
  in
  let one = accept_words 1 [| pick v ~client:1 0 |] in
  let many = accept_words 2 (Array.init 64 (fun c -> pick v ~client:(100 + c) 0)) in
  if many > one then
    Alcotest.failf "a 64-request batch allocates %.0f words, a 1-request batch %.0f" many one

(* ------------------------------------------------------------------ *)
(* Checkpoints (§3.5)

   One node, fed hand-signed CHECKPOINT votes.  Its own votes are taken off
   the wire it broadcasts them on, so the signed material is the node's. *)

let test_checkpoint_quorum () =
  let config = Core.Config.pbft_default ~n:4 in
  let announce = ref None in
  let orderer_factory (ctx : Core.Orderer_intf.ctx) _ =
    announce := Some ctx.announce;
    idle_orderer
  in
  let own_votes = Hashtbl.create 4 (* epoch -> node 0's vote *) in
  let send ~dst msg =
    match msg with
    | Proto.Message.Checkpoint_msg { epoch; _ } when dst = 1 -> Hashtbl.replace own_votes epoch msg
    | _ -> ()
  in
  let node =
    Core.Node.create ~config ~id:0 ~clock:(idle_clock ()) ~send ~orderer_factory ()
  in
  Core.Node.start node;
  (* Decide every position of epochs 0 and 1 with an empty batch. *)
  let sn = ref 0 in
  while Core.Node.current_epoch node < 2 do
    Option.get !announce ~sn:!sn (Proto.Proposal.Batch Proto.Batch.empty);
    incr sn
  done;
  let vote ~epoch ?root signer =
    match Hashtbl.find own_votes epoch with
    | Proto.Message.Checkpoint_msg m ->
        let root = Option.value root ~default:m.root in
        let material =
          Proto.Message.checkpoint_material ~epoch ~max_sn:m.max_sn ~root ~req_count:m.req_count
            ~policy:m.policy
        in
        let sig_ = Iss_crypto.Signature.sign (Iss_crypto.Signature.genkey ~id:signer) material in
        Core.Node.on_message node ~src:signer
          (Proto.Message.Checkpoint_msg { m with root; signer; sig_ })
    | _ -> assert false
  in
  let signers () =
    match Core.Log.last_stable_checkpoint (Core.Node.log node) with
    | Some cert -> List.map fst cert.Proto.Message.cc_sigs
    | None -> []
  in
  check_int "no certificate: lag of two epochs" 2 (Core.Node.checkpoint_lag node);
  (* Node 2 first signs a corrupted root, as a Bad_checkpoint attacker
     does: a valid signature over the wrong material.  Its correct vote
     afterwards is a second vote and is ignored. *)
  vote ~epoch:0 ~root:(Iss_crypto.Hash.of_string "corrupted") 2;
  vote ~epoch:0 3;
  vote ~epoch:0 2;
  vote ~epoch:0 1;
  Alcotest.(check (list int)) "2 matching votes of 3 needed" [] (signers ());
  vote ~epoch:0 0;
  Alcotest.(check (list int)) "quorum, signers sorted, corrupted vote left out" [ 0; 1; 3 ]
    (signers ());
  check_int "lag follows the certificate" 1 (Core.Node.checkpoint_lag node);
  vote ~epoch:1 3;
  vote ~epoch:1 2;
  vote ~epoch:1 1;
  Alcotest.(check (list int)) "newer certificate" [ 1; 2; 3 ] (signers ());
  check_int "caught up" 0 (Core.Node.checkpoint_lag node);
  vote ~epoch:0 2;
  Alcotest.(check (list int)) "a late vote for an older epoch changes nothing" [ 1; 2; 3 ]
    (signers ())

(* Checkpoints in Core.Log alone: no node, no cluster.  Epoch [e] spans
   positions [e * cp_len, (e + 1) * cp_len), each a one-request batch, and
   n = 4 needs 3 signatures. *)

let cp_len = 4
let cp_quorum = 3

let log_with_epochs epochs =
  let log = Core.Log.create () in
  for e = 0 to epochs - 1 do
    Core.Log.set_range log ~epoch:e ~first_sn:(e * cp_len) ~length:cp_len
  done;
  for sn = 0 to (epochs * cp_len) - 1 do
    ignore (Core.Log.commit log ~sn (Proto.Proposal.Batch (batch_of [ (1, sn) ])))
  done;
  drain log;
  log

let cp_vote log ~epoch signer =
  Core.Log.checkpoint_vote log
    ~keypair:(Iss_crypto.Signature.genkey ~id:signer)
    ~signer ~epoch ~from_sn:(epoch * cp_len)
    ~to_sn:(((epoch + 1) * cp_len) - 1)
    ~req_count:((epoch + 1) * cp_len) ~policy:"policy"

(* [signer]'s vote on [epoch], with [root] if given, signed with [key]'s key. *)
let cp_altered log ~epoch ?root ~key signer =
  match cp_vote log ~epoch signer with
  | Proto.Message.Checkpoint_msg m ->
      let root = Option.value root ~default:m.root in
      let material =
        Proto.Message.checkpoint_material ~epoch ~max_sn:m.max_sn ~root ~req_count:m.req_count
          ~policy:m.policy
      in
      let sig_ = Iss_crypto.Signature.sign (Iss_crypto.Signature.genkey ~id:key) material in
      Proto.Message.Checkpoint_msg { m with root; sig_ }
  | _ -> assert false

let cp_cast log (m : Proto.Message.t) =
  match m with
  | Proto.Message.Checkpoint_msg { epoch; max_sn; root; req_count; policy; signer; sig_ } ->
      Core.Log.add_vote log ~quorum:cp_quorum ~epoch ~max_sn ~root ~req_count ~policy ~signer
        ~sig_
  | _ -> assert false

let cast log ~epoch signer = cp_cast log (cp_vote log ~epoch signer)

let cert_signers log ~epoch =
  match Core.Log.last_stable_checkpoint log with
  | Some (cert : Proto.Message.checkpoint_cert) when cert.cc_epoch = epoch ->
      List.map fst cert.cc_sigs
  | Some _ | None -> []

let test_log_vote_quorum () =
  let log = log_with_epochs 1 in
  check_bool "first vote" false (cast log ~epoch:0 3);
  check_bool "second vote" false (cast log ~epoch:0 1);
  check_bool "not stable below the quorum" false (Core.Log.is_stable log ~epoch:0);
  check_bool "the third matching vote completes the quorum" true (cast log ~epoch:0 2);
  Alcotest.(check (list int)) "signers sorted by node id" [ 1; 2; 3 ] (cert_signers log ~epoch:0);
  check_int "newest stable epoch" 0 (Core.Log.newest_stable log);
  check_bool "a vote after the quorum changes nothing" false (cast log ~epoch:0 0);
  Alcotest.(check (list int)) "certificate unchanged" [ 1; 2; 3 ] (cert_signers log ~epoch:0)

let test_log_vote_filters () =
  let log = log_with_epochs 1 in
  (* Node 2 first signs a corrupted root: a valid signature over the wrong
     material.  Its correct vote afterwards is a second vote. *)
  let root = Iss_crypto.Hash.of_string "corrupted" in
  check_bool "corrupted-root vote" false (cp_cast log (cp_altered log ~epoch:0 ~root ~key:2 2));
  check_bool "vote 3" false (cast log ~epoch:0 3);
  check_bool "vote 1: two matching, the corrupted one does not count" false
    (cast log ~epoch:0 1);
  check_bool "node 2's second vote is ignored" false (cast log ~epoch:0 2);
  (* A vote claiming node 0 but signed with node 2's key never counts. *)
  check_bool "forged signature" false (cp_cast log (cp_altered log ~epoch:0 ~key:2 0));
  check_bool "still no certificate" false (Core.Log.is_stable log ~epoch:0);
  check_bool "node 0's own vote completes it" true (cast log ~epoch:0 0);
  Alcotest.(check (list int)) "corrupted vote left out" [ 0; 1; 3 ] (cert_signers log ~epoch:0)

(* The replies a server holding [epochs] stable epochs sends from [from_sn]. *)
let stable_server epochs =
  let log = log_with_epochs epochs in
  for epoch = 0 to epochs - 1 do
    List.iter (fun s -> ignore (cast log ~epoch s)) [ 0; 1; 2 ]
  done;
  log

let replies log ~from_sn =
  List.map
    (function
      | Proto.Message.State_reply { entries; cert } -> (List.map fst entries, cert)
      | _ -> assert false)
    (Core.Log.state_replies log ~from_sn)

let test_log_reply_verification () =
  let server = stable_server 2 in
  let entries, cert =
    match Core.Log.state_replies server ~from_sn:0 with
    | Proto.Message.State_reply { entries; cert } :: _ -> (entries, cert)
    | _ -> Alcotest.fail "no reply for epoch 0"
  in
  let client = Core.Log.create () in
  let verdict ?(entries = entries) cert =
    match Core.Log.check_state_reply client ~quorum:cp_quorum ~entries ~cert with
    | Core.Log.Refused -> "refused"
    | Core.Log.Jumped -> "jumped"
    | Core.Log.Verified sorted -> Printf.sprintf "verified %d" (List.length sorted)
  in
  let check_verdict what expected ?entries cert =
    Alcotest.(check string) what expected (verdict ?entries cert)
  in
  let sigs = cert.Proto.Message.cc_sigs in
  check_verdict "two signatures" "refused" { cert with cc_sigs = List.tl sigs };
  check_verdict "a signer counted twice" "refused"
    { cert with cc_sigs = List.hd sigs :: List.rev (List.tl (List.rev sigs)) };
  let bogus = Iss_crypto.Signature.sign (Iss_crypto.Signature.genkey ~id:3) "other material" in
  check_verdict "an invalid signature is dropped before counting" "refused"
    { cert with cc_sigs = (3, bogus) :: List.tl sigs };
  check_verdict "a gap in the entries" "refused"
    ~entries:(List.filter (fun (sn, _) -> sn <> 1) entries)
    cert;
  check_verdict "entries short of max_sn" "refused" ~entries:(List.rev (List.tl (List.rev entries)))
    cert;
  (* Renumbered entries keep the signed batches, hence the root: only the
     contiguity check catches them. *)
  check_verdict "the signed batches at positions with a gap" "refused"
    ~entries:(List.map (fun (sn, p) -> ((if sn = 3 then 4 else sn), p)) entries)
    cert;
  check_verdict "the signed batches shifted past max_sn" "refused"
    ~entries:(List.map (fun (sn, p) -> (sn + 1, p)) entries)
    cert;
  check_verdict "an entry that is not the signed one" "refused"
    ~entries:(List.map (fun (sn, p) -> (sn, if sn = 2 then Proto.Proposal.Nil else p)) entries)
    cert;
  check_verdict "a wrong root" "refused" { cert with cc_root = Iss_crypto.Hash.of_string "x" };
  check_bool "nothing adopted from refused replies" false (Core.Log.is_stable client ~epoch:0);
  (match Core.Log.check_state_reply client ~quorum:cp_quorum ~entries:(List.rev entries) ~cert with
  | Core.Log.Verified sorted ->
      Alcotest.(check (list int)) "entries in sn order" [ 0; 1; 2; 3 ] (List.map fst sorted)
  | Core.Log.Refused | Core.Log.Jumped -> Alcotest.fail "a valid reply was refused");
  check_bool "certificate adopted" true (Core.Log.is_stable client ~epoch:0);
  (* An entry-less snapshot fast-forwards the frontier, once. *)
  let snapshot =
    match Core.Log.last_stable_checkpoint server with Some c -> c | None -> assert false
  in
  check_verdict "snapshot" "jumped" ~entries:[] snapshot;
  check_int "frontier past the snapshot" 8 (Core.Log.first_undelivered client);
  check_int "Eq. (2) numbering adopted" 8 (Core.Log.total_delivered client);
  check_verdict "a stale snapshot" "refused" ~entries:[] snapshot

let test_log_serving () =
  let server = stable_server 8 in
  let epochs_of rs =
    List.map (fun (sns, (c : Proto.Message.checkpoint_cert)) -> (c.cc_epoch, List.length sns)) rs
  in
  Alcotest.(check (list (pair int int)))
    "every epoch, ascending" (List.init 8 (fun e -> (e, cp_len)))
    (epochs_of (replies server ~from_sn:0));
  (* Newest stable epoch 7: epochs up to 3 (sn < 16) are pruned. *)
  Core.Log.prune_stable server ~below_sn:max_int;
  check_int "pruned through epoch 3" 16 (Core.Log.pruned_below server);
  check_bool "pruning keeps certificates" true (Core.Log.is_stable server ~epoch:0);
  Alcotest.(check (list (pair int int)))
    "snapshot first, then the retained epochs ascending"
    [ (3, 0); (4, cp_len); (5, cp_len); (6, cp_len); (7, cp_len) ]
    (epochs_of (replies server ~from_sn:5));
  Alcotest.(check (list (pair int int)))
    "no snapshot when nothing asked for is pruned"
    [ (5, cp_len); (6, cp_len); (7, cp_len) ]
    (epochs_of (replies server ~from_sn:22))

(* A node that jumps to a checkpoint keeps the watermark floors it had: the
   skipped requests cannot be replayed, so a client's floor stays below
   them.  One node, fed a hand-signed entry-less State_reply. *)
let test_jump_keeps_floors () =
  let window = Core.Config.client_watermark_window in
  let config = Core.Config.pbft_default ~n:4 in
  let ctxs = ref [] in
  let orderer_factory ctx seg =
    ctxs := (ctx, seg) :: !ctxs;
    idle_orderer
  in
  let delivered = ref [] and duplicates = ref [] in
  let hooks =
    {
      Core.Node.default_hooks with
      on_deliver = Some (fun _ d -> delivered := d.Core.Log.request.Proto.Request.id :: !delivered);
      on_duplicate = Some (fun _ r -> duplicates := r.Proto.Request.id :: !duplicates);
    }
  in
  let node =
    Core.Node.create ~config ~id:0 ~clock:(idle_clock ())
      ~send:(fun ~dst:_ _ -> ())
      ~orderer_factory ~hooks ()
  in
  Core.Node.start node;
  let signed ts = Proto.Request.sign (Iss_crypto.Signature.genkey ~id:7) (req ~client:7 ~ts) in
  let announce ~sn reqs =
    let ctx, _ = List.hd !ctxs in
    ctx.Core.Orderer_intf.announce ~sn
      (Proto.Proposal.Batch (Proto.Batch.make (Array.of_list reqs)))
  in
  (* Client 7's first two requests deliver at sn 0: its floor is 2. *)
  announce ~sn:0 [ signed 0; signed 1 ];
  (* A quorum-signed checkpoint of epoch 0 that skips 40 requests. *)
  let max_sn = Core.Config.epoch_length config ~leaders:4 - 1 in
  let policy =
    let p = Core.Leader_policy.create config in
    Core.Leader_policy.epoch_finished p ~epoch:0 ~failed:[] ();
    Core.Leader_policy.snapshot p
  in
  let root = Iss_crypto.Hash.of_string "skipped history" in
  let material = Proto.Message.checkpoint_material ~epoch:0 ~max_sn ~root ~req_count:42 ~policy in
  let cert =
    {
      Proto.Message.cc_epoch = 0;
      cc_max_sn = max_sn;
      cc_root = root;
      cc_req_count = 42;
      cc_policy = policy;
      cc_sigs =
        List.map
          (fun s -> (s, Iss_crypto.Signature.sign (Iss_crypto.Signature.genkey ~id:s) material))
          [ 1; 2; 3 ];
    }
  in
  Core.Node.on_message node ~src:1 (Proto.Message.State_reply { entries = []; cert });
  let log = Core.Node.log node in
  check_int "jumped into epoch 1" 1 (Core.Node.current_epoch node);
  check_int "frontier past the checkpoint" (max_sn + 1) (Core.Log.first_undelivered log);
  check_int "numbering adopted" 42 (Core.Log.total_delivered log);
  (* Old floors: ts 0 is still delivered, ts 2 + window is past the window
     and ts 2 + window - 1 inside it. *)
  Core.Node.submit node (signed 0);
  check_int "a delivered request is answered as a duplicate" 1 (List.length !duplicates);
  Core.Node.submit node (signed (2 + window));
  check_int "floor + window is refused" 0 (Core.Node.pending_requests node);
  Core.Node.submit node (signed (2 + window - 1));
  check_int "inside the old window is queued" 1 (Core.Node.pending_requests node);
  (* Nothing delivered twice: a batch with a delivered request fails
     validation, and the new request delivers once. *)
  let num_buckets = Core.Config.num_buckets config in
  let ctx, seg =
    List.find
      (fun (_, seg) ->
        Core.Segment.owns_bucket seg (Proto.Request.bucket_of_id ~num_buckets (signed 1).id))
      (List.filteri (fun i _ -> i < 4) !ctxs)
  in
  check_bool "a delivered request fails validation" true
    (ctx.Core.Orderer_intf.validate_proposal seg ~sn:seg.Core.Segment.seq_nrs.(0)
       (Proto.Proposal.Batch (Proto.Batch.make [| signed 1 |]))
    = Core.Orderer_intf.Reject);
  announce ~sn:(max_sn + 1) [ signed (2 + window - 1) ];
  Alcotest.(check (list int)) "each request delivered once" [ 0; 1; 2 + window - 1 ]
    (List.rev_map (fun (id : Proto.Request.id) -> id.ts) !delivered)

(* The lag check (§3.5): a node still in an epoch two epoch-change timeouts
   after entering it asks one signer of a stable certificate for that epoch
   (or a later one) for the log, once per lag period.  One node with idle
   orderers, fed hand-signed CHECKPOINT votes from nodes 1-3; the times of
   its State_requests are in half epoch-change timeouts. *)
let lag_check_node () =
  let config = Core.Config.pbft_default ~n:4 in
  let half = config.Core.Config.epoch_change_timeout / 2 in
  let engine = Sim.Engine.create () in
  let requests = ref [] in
  let send ~dst:_ = function
    | Proto.Message.State_request _ -> requests := (Sim.Engine.now engine / half) :: !requests
    | _ -> ()
  in
  let announce = ref None in
  let orderer_factory (ctx : Core.Orderer_intf.ctx) _ =
    if Option.is_none !announce then announce := Some ctx.announce;
    idle_orderer
  in
  let node =
    Core.Node.create ~config ~id:0 ~clock:(Core.Orderer_intf.Clock.of_engine engine) ~send
      ~orderer_factory ()
  in
  Core.Node.start node;
  let stable ~epoch =
    let max_sn = (Core.Config.epoch_length config ~leaders:4 * (epoch + 1)) - 1 in
    let root = Iss_crypto.Hash.of_string "epoch" and policy = "" and req_count = 0 in
    let material = Proto.Message.checkpoint_material ~epoch ~max_sn ~root ~req_count ~policy in
    List.iter
      (fun signer ->
        let sig_ = Iss_crypto.Signature.sign (Iss_crypto.Signature.genkey ~id:signer) material in
        Core.Node.on_message node ~src:signer
          (Proto.Message.Checkpoint_msg { epoch; max_sn; root; req_count; policy; signer; sig_ }))
      [ 1; 2; 3 ]
  in
  let run_until halves = Sim.Engine.run ~until:(halves * half) engine in
  (node, Option.get !announce, stable, run_until, fun () -> List.rev !requests)

(* Crashed from 3 to 3.5 timeouts: the recovery asks f+1 = 2 peers at once,
   then the lag check asks once per period from the recovery on.  The
   check armed before the crash no longer fires beside it. *)
let test_lag_check_across_crash () =
  let node, _, stable, run_until, requests = lag_check_node () in
  stable ~epoch:0;
  run_until 6;
  Core.Node.halt node;
  run_until 7;
  Core.Node.recover node;
  run_until 20;
  Alcotest.(check (list int)) "State_request times" [ 4; 7; 7; 11; 15; 19 ] (requests ())

(* An epoch whose every position is already committed finishes inside its
   own start: entering epoch 1 enters epoch 2 before it returns.  Both
   levels arm the lag check for epoch 2, which must still fire once per
   period. *)
let test_lag_check_reentrant_start () =
  let node, announce, stable, run_until, requests = lag_check_node () in
  let len = Core.Config.epoch_length (Core.Node.config node) ~leaders:4 in
  for sn = len to (2 * len) - 1 do
    announce ~sn (Proto.Proposal.Batch Proto.Batch.empty)
  done;
  for sn = 0 to len - 1 do
    announce ~sn (Proto.Proposal.Batch Proto.Batch.empty)
  done;
  check_int "entered epoch 2" 2 (Core.Node.current_epoch node);
  stable ~epoch:2;
  run_until 8;
  Alcotest.(check (list int)) "State_request times" [ 4; 8 ] (requests ())

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validation () =
  let ok c = match Core.Config.validate c with Ok () -> true | Error _ -> false in
  check_bool "pbft default valid" true (ok (Core.Config.pbft_default ~n:4));
  check_bool "hotstuff default valid" true (ok (Core.Config.hotstuff_default ~n:16));
  check_bool "raft default valid" true (ok (Core.Config.raft_default ~n:3));
  check_bool "n=0 invalid" false (ok (Core.Config.pbft_default ~n:4 |> fun c -> { c with Core.Config.n = 0 }));
  check_bool "empty fixed invalid" false
    (ok { (Core.Config.pbft_default ~n:4) with Core.Config.leader_policy = Core.Config.Fixed [] });
  check_bool "out of range fixed invalid" false
    (ok { (Core.Config.pbft_default ~n:4) with Core.Config.leader_policy = Core.Config.Fixed [ 9 ] });
  check_bool "negative batch invalid" false
    (ok { (Core.Config.pbft_default ~n:4) with Core.Config.max_batch_size = 0 })

let test_config_quorums () =
  let c = Core.Config.pbft_default ~n:10 in
  check_int "f" 3 (Core.Config.max_faulty c);
  check_int "strong quorum" 7 (Core.Config.strong_quorum c);
  check_int "buckets" 160 (Core.Config.num_buckets c)

(* ------------------------------------------------------------------ *)
(* Request / bucket mapping *)

let prop_bucket_mapping_in_range =
  QCheck.Test.make ~name:"bucket mapping stays in range" ~count:200
    QCheck.(triple (int_range 0 10_000) (int_range 0 10_000) (int_range 1 4096))
    (fun (client, ts, num_buckets) ->
      let b = Proto.Request.bucket_of_id ~num_buckets { Proto.Request.client; ts } in
      b >= 0 && b < num_buckets)

let test_bucket_mapping_spread () =
  (* A single client's consecutive timestamps must spread across buckets
     (the paper excludes the payload but mixes c and t). *)
  let num_buckets = 64 in
  let seen = Hashtbl.create 64 in
  for ts = 0 to 255 do
    Hashtbl.replace seen (Proto.Request.bucket_of_id ~num_buckets { Proto.Request.client = 5; ts }) ()
  done;
  check_bool "at least half the buckets hit" true (Hashtbl.length seen > 32)

let prop_request_signature =
  QCheck.Test.make ~name:"signed requests verify; altered ones do not" ~count:100
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (client, ts) ->
      let kp = Iss_crypto.Signature.genkey ~id:client in
      let r = Proto.Request.sign kp (req ~client ~ts) in
      Proto.Request.signature_valid r
      && not
           (Proto.Request.signature_valid
              { r with Proto.Request.id = { r.Proto.Request.id with Proto.Request.ts = ts + 1 } }))

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "bucket-queue",
        [
          Alcotest.test_case "fifo cut" `Quick test_bq_fifo;
          Alcotest.test_case "idempotent add" `Quick test_bq_idempotent_add;
          Alcotest.test_case "remove" `Quick test_bq_remove;
          Alcotest.test_case "resurrect order" `Quick test_bq_resurrect_order;
          Alcotest.test_case "re-arrival keeps its place" `Quick test_bq_rearrival_order;
          Alcotest.test_case "commit of an unqueued id" `Quick test_bq_commit_unknown;
          Alcotest.test_case "resurrect unnumbered id" `Quick test_bq_resurrect_unknown;
          qc prop_bq_model;
          Alcotest.test_case "no ring until the first add" `Quick test_bq_no_ring_until_add;
          Alcotest.test_case "commit in an unindexed bucket" `Quick test_bq_commit_unindexed_bucket;
          Alcotest.test_case "commit after resurrect, clear, add" `Quick
            test_bq_commit_after_resurrect_clear_add;
        ] );
      ( "bucket-assignment",
        [
          qc prop_assignment_partition;
          Alcotest.test_case "rotation coverage" `Quick test_assignment_rotation_coverage;
          Alcotest.test_case "matches Eq (1)" `Quick test_assignment_matches_eq1;
          Alcotest.test_case "buckets_of_leader" `Quick test_buckets_of_leader;
        ] );
      ( "segments",
        [
          Alcotest.test_case "round robin" `Quick test_segments_round_robin;
          Alcotest.test_case "epoch length adapts" `Quick test_segments_epoch_length_grows;
          qc prop_segment_buckets_partition;
        ] );
      ( "leader-policy",
        [
          Alcotest.test_case "SIMPLE" `Quick test_policy_simple;
          Alcotest.test_case "BLACKLIST" `Quick test_policy_blacklist;
          Alcotest.test_case "BACKOFF re-inclusion" `Quick test_policy_backoff;
          Alcotest.test_case "BACKOFF doubling" `Quick test_policy_backoff_doubling;
          Alcotest.test_case "STRAGGLER-AWARE" `Quick test_policy_straggler_aware;
          Alcotest.test_case "FIXED" `Quick test_policy_fixed;
          Alcotest.test_case "snapshot roundtrip" `Quick test_policy_snapshot_roundtrip;
          qc prop_policy_determinism;
        ] );
      ( "log",
        [
          Alcotest.test_case "delivery order + Eq 2" `Quick test_log_delivery_order_eq2;
          Alcotest.test_case "conflict detection" `Quick test_log_conflict_detection;
          Alcotest.test_case "ranges and nils" `Quick test_log_ranges;
          Alcotest.test_case "prune below checkpoint" `Quick test_log_prune;
          Alcotest.test_case "checkpoint jump" `Quick test_log_jump;
        ] );
      ( "watermarks",
        [
          Alcotest.test_case "window" `Quick test_watermarks_window;
          Alcotest.test_case "out of order" `Quick test_watermarks_out_of_order;
          qc prop_watermarks_permutation;
          qc prop_watermarks_overflow_no_duplicate;
          qc prop_watermarks_overflow_no_false_positive;
          qc prop_watermarks_exact;
          Alcotest.test_case "reads do not insert" `Quick test_watermarks_reads_do_not_insert;
          qc prop_watermarks_proposals_exact;
          Alcotest.test_case "clear keeps delivered marks" `Quick
            test_watermarks_clear_keeps_delivered;
          qc prop_watermarks_model;
          qc prop_validation_rollback;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "watermark lookups" `Quick test_watermarks_allocate_nothing;
          Alcotest.test_case "watermark proposals" `Quick
            test_watermarks_proposals_allocate_nothing;
          Alcotest.test_case "bucket-queue hits" `Quick test_bq_hits_allocate_nothing;
          Alcotest.test_case "PBFT vote" `Quick test_votes_add_allocates_nothing;
          Alcotest.test_case "validation per batch, not per request" `Quick
            test_validate_allocates_per_batch;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "quorum certificate" `Quick test_checkpoint_quorum;
          Alcotest.test_case "log: quorum gives a sorted certificate" `Quick test_log_vote_quorum;
          Alcotest.test_case "log: second and corrupted votes never join" `Quick
            test_log_vote_filters;
          Alcotest.test_case "log: reply verification" `Quick test_log_reply_verification;
          Alcotest.test_case "log: serving order and pruned epochs" `Quick test_log_serving;
          Alcotest.test_case "jump keeps watermark floors" `Quick test_jump_keeps_floors;
          Alcotest.test_case "lag check: once per period across a crash" `Quick
            test_lag_check_across_crash;
          Alcotest.test_case "lag check: once per period after a re-entrant epoch start" `Quick
            test_lag_check_reentrant_start;
        ] );
      ( "validation",
        [ Alcotest.test_case "proposal verdicts" `Quick test_validate_proposal_verdicts ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "quorums" `Quick test_config_quorums;
        ] );
      ( "requests",
        [
          qc prop_bucket_mapping_in_range;
          Alcotest.test_case "bucket spread" `Quick test_bucket_mapping_spread;
          qc prop_request_signature;
        ] );
    ]
