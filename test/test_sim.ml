(* Unit and property tests for the simulator substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Words the minor heap grew by per call of [f], over [n] calls.  The
   probe's own boxed floats add a few words in total, far below one word
   per call, so a zero-allocation guard checks for less than 0.01. *)
let words_per_call ~n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_no_alloc what words =
  if words >= 0.01 then Alcotest.failf "%s allocates %.2f words per call" what words

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:99L and b = Sim.Rng.create ~seed:99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next_int64 a) (Sim.Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:99L in
  let b = Sim.Rng.split a in
  let x = Sim.Rng.next_int64 a and y = Sim.Rng.next_int64 b in
  check_bool "split streams differ" true (x <> y)

let test_rng_bounds () =
  let rng = Sim.Rng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int rng 17 in
    check_bool "int in range" true (v >= 0 && v < 17);
    let f = Sim.Rng.float rng 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done

(* The SplitMix64 stream for seed 42, pinned: a change to how the state is
   stored must not change a single draw (every fingerprint depends on it). *)
let test_rng_golden () =
  let first8 f =
    let rng = Sim.Rng.create ~seed:42L in
    List.init 8 (fun _ -> f rng)
  in
  Alcotest.(check (list int64))
    "next_int64"
    [
      -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L; 701532786141963250L; -2430762948046562554L;
      4028864712777624925L; -3677692746721775708L;
    ]
    (first8 Sim.Rng.next_int64);
  Alcotest.(check (list int))
    "int 1000" [ 853; 72; 964; 941; 812; 265; 231; 977 ]
    (first8 (fun rng -> Sim.Rng.int rng 1000));
  Alcotest.(check (list (float 0.0)))
    "float 1.0"
    [
      0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
      0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1;
      0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1;
    ]
    (first8 (fun rng -> Sim.Rng.float rng 1.0));
  Alcotest.(check (list bool))
    "bool" [ true; true; false; false; false; false; true; false ] (first8 Sim.Rng.bool);
  let child = Sim.Rng.split (Sim.Rng.create ~seed:42L) in
  Alcotest.(check (list int64))
    "split child"
    [
      6332618229526065668L; -816328817471504299L; 8971565426155258802L;
      1242533817266198696L; -5959852680200513735L; 1245346008178237623L;
      3603600226484403572L; -4893543810735773810L;
    ]
    (List.init 8 (fun _ -> Sim.Rng.next_int64 child))

(* A draw allocates nothing; [float] only boxes the float it returns, since
   an unboxed result needs cross-module inlining. *)
let test_rng_draws_allocate_nothing () =
  let rng = Sim.Rng.create ~seed:3L in
  check_no_alloc "Rng.int" (words_per_call ~n:10_000 (fun () -> ignore (Sim.Rng.int rng 1000)));
  check_no_alloc "Rng.bool" (words_per_call ~n:10_000 (fun () -> ignore (Sim.Rng.bool rng)));
  let words = words_per_call ~n:10_000 (fun () -> ignore (Sim.Rng.float rng 1.0)) in
  if words >= 2.01 then Alcotest.failf "Rng.float allocates %.2f words per call" words

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create ~seed:6L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential rng ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "exponential mean ~3" true (mean > 2.8 && mean < 3.2)

let test_rng_zipf () =
  let rng = Sim.Rng.create ~seed:7L in
  let counts = Array.make 11 0 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.zipf rng ~n:10 ~s:1.1 in
    check_bool "zipf in range" true (v >= 1 && v <= 10);
    counts.(v) <- counts.(v) + 1
  done;
  check_bool "rank 1 most frequent" true (counts.(1) > counts.(2) && counts.(2) > counts.(5))

(* ------------------------------------------------------------------ *)
(* Event queue (timing wheel + overflow heap) *)

module Q = Sim.Event_queue

(* Drain the queue, executing each popped action (tests record identity
   through the actions, which is how the engine itself consumes events). *)
let drain_queue q =
  let rec go () =
    let ev = Q.pop q in
    if ev != Q.nil then begin
      ev.Q.action ();
      Q.release q ev;
      go ()
    end
  in
  go ()

(* Times biased to cross every structural boundary: within one level-0
   slot, across the level-0 window, across the wheel horizon (2^32 ns),
   and deep into the overflow heap. *)
let gen_time =
  QCheck.Gen.(
    oneof
      [
        int_range 0 8_192;
        int_range 0 5_000_000;
        int_range 0 6_000_000_000;
        int_range 3_000_000_000 40_000_000_000;
      ])

let prop_queue_order_fifo =
  QCheck.Test.make ~name:"event queue pops by (time, insertion seq)" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list int)
       QCheck.Gen.(list_size (int_range 0 400) gen_time))
    (fun times ->
      let q = Q.create () in
      let order = ref [] in
      List.iteri
        (fun i at -> ignore (Q.add q ~time:at (fun () -> order := i :: !order)))
        times;
      drain_queue q;
      let expected =
        List.mapi (fun i at -> (at, i)) times |> List.sort compare |> List.map snd
      in
      List.rev !order = expected && Q.live q = 0)

let prop_queue_cancel =
  QCheck.Test.make ~name:"cancelled events neither fire nor count as live"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (pair int bool))
       QCheck.Gen.(list_size (int_range 0 400) (pair gen_time (frequencyl [ (7, true); (3, false) ])))
    )
    (fun items ->
      let q = Q.create () in
      let order = ref [] in
      let handles =
        List.mapi
          (fun i (at, _) -> Q.add q ~time:at (fun () -> order := i :: !order))
          items
      in
      (* Heavy cancellation exercises the bulk-purge sweep. *)
      List.iter2 (fun h (_, c) -> if c then Q.cancel q h) handles items;
      let survivors = List.filter (fun (_, (_, c)) -> not c)
          (List.mapi (fun i it -> (i, it)) items)
      in
      let live_ok = Q.live q = List.length survivors in
      drain_queue q;
      let expected =
        List.map (fun (i, (at, _)) -> (at, i)) survivors
        |> List.sort compare |> List.map snd
      in
      live_ok && List.rev !order = expected && Q.live q = 0)

let test_queue_boundary_times () =
  (* Deterministic walk across the exact level boundaries: end of a
     level-0 slot (2^12), end of the level-0 window (2^22), the wheel
     horizon (2^32), and far overflow.  Inserted in reverse. *)
  let times =
    [
      0;
      1;
      4_095;
      4_096;
      4_194_303;
      4_194_304;
      4_294_967_295;
      4_294_967_296;
      40_000_000_000;
    ]
  in
  let q = Q.create () in
  let popped = ref [] in
  List.iter
    (fun at -> ignore (Q.add q ~time:at (fun () -> popped := at :: !popped)))
    (List.rev times);
  drain_queue q;
  Alcotest.(check (list int)) "ascending across boundaries" times (List.rev !popped)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 20) (fun () -> order := 2 :: !order));
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 10) (fun () -> order := 1 :: !order));
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 30) (fun () -> order := 3 :: !order));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order)

let test_engine_fifo_same_time () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 10) (fun () -> order := i :: !order))
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "insertion order at equal time" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let id = Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 10) (fun () -> fired := true) in
  Sim.Engine.cancel e id;
  Sim.Engine.run e;
  check_bool "cancelled timer silent" false !fired

let test_engine_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 10) (fun () -> incr fired));
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 50) (fun () -> incr fired));
  Sim.Engine.run ~until:(Sim.Time_ns.ms 20) e;
  check_int "only first event" 1 !fired;
  check_int "clock at limit" (Sim.Time_ns.ms 20) (Sim.Engine.now e);
  Sim.Engine.run e;
  check_int "second event after resume" 2 !fired

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 5) (fun () ->
         log := `A :: !log;
         ignore (Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 5) (fun () -> log := `B :: !log))));
  Sim.Engine.run e;
  check_int "both fired" 2 (List.length !log);
  check_int "final clock" (Sim.Time_ns.ms 10) (Sim.Engine.now e)

let test_engine_until_non_monotonic () =
  (* Regression: a second [run ~until] with an *earlier* limit used to move
     the clock backwards; it must be a no-op on the clock. *)
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 30) (fun () -> incr fired));
  Sim.Engine.run ~until:(Sim.Time_ns.ms 20) e;
  check_int "clock parked at first limit" (Sim.Time_ns.ms 20) (Sim.Engine.now e);
  Sim.Engine.run ~until:(Sim.Time_ns.ms 10) e;
  check_int "clock does not rewind" (Sim.Time_ns.ms 20) (Sim.Engine.now e);
  check_int "nothing fired early" 0 !fired;
  Sim.Engine.run ~until:(Sim.Time_ns.ms 30) e;
  check_int "due event still fires" 1 !fired

let test_engine_pending_excludes_cancelled () =
  let e = Sim.Engine.create () in
  let ids =
    List.init 10 (fun _ -> Sim.Engine.schedule e ~delay:(Sim.Time_ns.ms 10) (fun () -> ()))
  in
  check_int "all pending" 10 (Sim.Engine.pending e);
  List.iteri (fun i id -> if i < 4 then Sim.Engine.cancel e id) ids;
  check_int "pending excludes cancelled" 6 (Sim.Engine.pending e);
  Sim.Engine.cancel e (List.hd ids);
  check_int "double cancel is a no-op" 6 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check_int "drained" 0 (Sim.Engine.pending e)

let test_engine_cancel_releases_closure () =
  (* Cancelling must drop the action closure immediately, even though the
     event record lingers as a tombstone. *)
  let e = Sim.Engine.create () in
  let w = Weak.create 1 in
  let id =
    let v = ref 42 in
    Weak.set w 0 (Some v);
    Sim.Engine.schedule e ~delay:(Sim.Time_ns.sec 100) (fun () -> ignore !v)
  in
  Sim.Engine.cancel e id;
  Gc.full_major ();
  check_bool "cancelled closure collected" false (Weak.check w 0)

(* The freelist has no cap: once it has grown to the peak in-flight set, a
   second wave of that size reuses every record. *)
let test_engine_warm_post_allocates_nothing () =
  let e = Sim.Engine.create () in
  let noop () = () in
  let wave () =
    for i = 1 to 10_000 do
      Sim.Engine.post_at e ~at:(Sim.Engine.now e + i) noop
    done;
    Sim.Engine.run e
  in
  wave ();
  check_no_alloc "warm Engine.post_at" (words_per_call ~n:1 wave /. 10_000.)

let test_engine_post_recycles () =
  (* Fire-and-forget events run through the record freelist; a long chain
     must reuse records without corruption. *)
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec body () =
    if !count < 10_000 then begin
      incr count;
      Sim.Engine.post e ~delay:(Sim.Time_ns.us 1) body
    end
  in
  Sim.Engine.post e ~delay:0 body;
  Sim.Engine.run e;
  check_int "all anonymous events fired" 10_000 !count;
  check_int "queue empty" 0 (Sim.Engine.pending e)

(* An owned record placed again under a seq drawn earlier takes the place a
   post made at the draw would hold: ahead of anonymous posts at the same
   instant drawn after it, behind those drawn before, whenever it is
   placed — also from inside its own action. *)
let test_engine_owned_keeps_seq_order () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  let note x () = order := x :: !order in
  let at = Sim.Time_ns.ms 1 and later = Sim.Time_ns.ms 2 in
  let early = Sim.Engine.draw_seq e in
  Sim.Engine.post_at e ~at (note "a1");
  let mid = Sim.Engine.draw_seq e in
  Sim.Engine.post_at e ~at (note "a2");
  Sim.Engine.post_at e ~at:later (note "b1");
  let fires = ref 0 in
  let owned = ref None in
  let own =
    Sim.Engine.own (fun () ->
        incr fires;
        note (Printf.sprintf "owned%d" !fires) ();
        (* Again, at a later instant, under the seq drawn between a1 and
           a2: ahead of b1, which was posted after that draw. *)
        if !fires = 1 then Option.iter (fun o -> Sim.Engine.place e o ~at:later ~seq:mid) !owned)
  in
  owned := Some own;
  Sim.Engine.post_at e ~at (note "a3");
  Sim.Engine.place e own ~at ~seq:early;
  check_int "one queued record per placement" 5 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "strict (time, seq) order"
    [ "owned1"; "a1"; "a2"; "a3"; "owned2"; "b1" ]
    (List.rev !order);
  check_int "one event per firing" 6 (Sim.Engine.events_executed e);
  check_int "drained" 0 (Sim.Engine.pending e)

(* Random interleavings of schedule / cancel / run-until, checked against a
   sorted-list model of the queue and clock. *)
let prop_engine_matches_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun d -> `Schedule d) (oneof [ int_range 0 2_000_000; int_range 0 6_000_000_000 ]));
          (2, map (fun k -> `Cancel k) (int_range 0 300));
          (3, map (fun u -> `Run u) (oneof [ int_range 0 2_000_000; int_range 0 8_000_000_000 ]));
        ])
  in
  let print_op = function
    | `Schedule d -> Printf.sprintf "Schedule %d" d
    | `Cancel k -> Printf.sprintf "Cancel %d" k
    | `Run u -> Printf.sprintf "Run %d" u
  in
  QCheck.Test.make ~name:"engine matches sorted-list model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_op)
       QCheck.Gen.(list_size (int_range 1 120) gen_op))
    (fun ops ->
      let e = Sim.Engine.create () in
      let fired_real = ref [] and fired_model = ref [] in
      let handles = ref [] (* insertion order, reversed *) in
      let model = ref [] (* (at, idx, cancelled) in insertion order *) in
      let idx = ref 0 and clock = ref 0 in
      let ok = ref true in
      let fire_due limit =
        let due, rest =
          List.partition (fun (at, _, _) -> at <= limit)
            (List.stable_sort (fun (a, _, _) (b, _, _) -> compare (a : int) b) !model)
        in
        List.iter (fun (_, i, c) -> if not !c then fired_model := i :: !fired_model) due;
        model := rest;
        if limit > !clock then clock := limit
      in
      List.iter
        (fun op ->
          match op with
          | `Schedule d ->
              let i = !idx in
              incr idx;
              let h =
                Sim.Engine.schedule e ~delay:d (fun () -> fired_real := i :: !fired_real)
              in
              handles := h :: !handles;
              model := !model @ [ (!clock + d, i, ref false) ]
          | `Cancel k -> (
              match List.nth_opt (List.rev !handles) k with
              | None -> ()
              | Some h ->
                  (* also exercises cancel-after-fire as a no-op: fired
                     entries are gone from [model], so only a still-pending
                     entry gets marked *)
                  Sim.Engine.cancel e h;
                  List.iter (fun (_, i, c) -> if i = k then c := true) !model)
          | `Run u ->
              Sim.Engine.run ~until:u e;
              fire_due u;
              if Sim.Engine.now e <> !clock then ok := false;
              let live = List.length (List.filter (fun (_, _, c) -> not !c) !model) in
              if Sim.Engine.pending e <> live then ok := false)
        ops;
      Sim.Engine.run e;
      fire_due max_int;
      !ok
      && List.rev !fired_real = List.rev !fired_model
      && Sim.Engine.pending e = 0)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_histogram () =
  let h = Sim.Metrics.Histogram.create () in
  for i = 1 to 100 do
    Sim.Metrics.Histogram.add h (float_of_int i)
  done;
  check_int "count" 100 (Sim.Metrics.Histogram.count h);
  Alcotest.(check (float 0.01)) "mean" 50.5 (Sim.Metrics.Histogram.mean h);
  Alcotest.(check (float 1.5)) "p50" 50.0 (Sim.Metrics.Histogram.percentile h 50.0);
  Alcotest.(check (float 1.5)) "p95" 95.0 (Sim.Metrics.Histogram.percentile h 95.0);
  Alcotest.(check (float 0.01)) "min" 1.0 (Sim.Metrics.Histogram.min h);
  Alcotest.(check (float 0.01)) "max" 100.0 (Sim.Metrics.Histogram.max h)

let test_series () =
  let s = Sim.Metrics.Series.create ~bin:(Sim.Time_ns.sec 1) in
  Sim.Metrics.Series.add s ~at:(Sim.Time_ns.ms 500) 3.0;
  Sim.Metrics.Series.add s ~at:(Sim.Time_ns.ms 800) 2.0;
  Sim.Metrics.Series.add s ~at:(Sim.Time_ns.ms 2500) 7.0;
  let bins = Sim.Metrics.Series.bins s ~until:(Sim.Time_ns.sec 4) in
  Alcotest.(check (array (float 0.01))) "bins" [| 5.0; 0.0; 7.0; 0.0 |] bins

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_symmetry () =
  let n = Array.length Sim.Topology.datacenters in
  check_int "16 datacenters" 16 n;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      check_int
        (Printf.sprintf "latency %d-%d symmetric" i j)
        (Sim.Topology.latency i j) (Sim.Topology.latency j i)
    done
  done

let test_topology_sane_values () =
  (* London <-> Frankfurt should be a few ms; Sydney <-> London ~ 100+ ms. *)
  let name_idx name =
    let rec go i =
      if Sim.Topology.datacenters.(i).Sim.Topology.name = name then i else go (i + 1)
    in
    go 0
  in
  let lon = name_idx "London" and fra = name_idx "Frankfurt" and syd = name_idx "Sydney" in
  let ms x = Sim.Time_ns.to_ms_f x in
  check_bool "London-Frankfurt < 10ms" true (ms (Sim.Topology.latency lon fra) < 10.0);
  check_bool "London-Sydney > 80ms" true (ms (Sim.Topology.latency lon syd) > 80.0);
  check_bool "intra-dc small" true (ms (Sim.Topology.latency 0 0) < 1.0)

let test_topology_assignment () =
  let a = Sim.Topology.assign_uniform ~n:4 in
  check_int "4 nodes, 4 distinct dcs" 4 (List.length (List.sort_uniq compare (Array.to_list a)));
  let a = Sim.Topology.assign_uniform ~n:32 in
  check_int "32 nodes round-robin" 32 (Array.length a);
  Array.iteri (fun i dc -> check_int (Printf.sprintf "node %d" i) (i mod 16) dc) a

(* ------------------------------------------------------------------ *)
(* Network *)

let make_net () =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:1L in
  let net = Sim.Network.create e ~rng in
  (e, net)

let test_network_delivery () =
  let e, net = make_net () in
  let got = ref [] in
  Sim.Network.add_endpoint net ~id:0 ~category:Sim.Network.Node ~datacenter:0
    ~handler:(fun ~src:_ ~size:_ _ -> ());
  Sim.Network.add_endpoint net ~id:1 ~category:Sim.Network.Node ~datacenter:15
    ~handler:(fun ~src ~size msg -> got := (src, size, msg) :: !got);
  Sim.Network.send net ~src:0 ~dst:1 ~size:1000 "hello";
  Sim.Engine.run e;
  (match !got with
  | [ (0, 1000, "hello") ] -> ()
  | _ -> Alcotest.fail "expected one delivery");
  (* Dallas -> Sydney one way is > 50 ms. *)
  check_bool "propagation delay applied" true (Sim.Engine.now e > Sim.Time_ns.ms 50)

let test_network_bandwidth_serialization () =
  let e, net = make_net () in
  let arrivals = ref [] in
  Sim.Network.add_endpoint net ~id:0 ~category:Sim.Network.Node ~datacenter:0
    ~handler:(fun ~src:_ ~size:_ _ -> ());
  Sim.Network.add_endpoint net ~id:1 ~category:Sim.Network.Node ~datacenter:0
    ~handler:(fun ~src:_ ~size:_ _ -> arrivals := Sim.Engine.now e :: !arrivals);
  (* 10 x 1.25 MB messages at 1 Gbps = 10 ms serialization each: arrivals
     must be spaced by ~10 ms because the sender NIC serializes them, and the
     receiver NIC again, so up to 2 ms of jitter cannot bunch them. *)
  for _ = 1 to 10 do
    Sim.Network.send net ~src:0 ~dst:1 ~size:1_250_000 ()
  done;
  Sim.Engine.run e;
  let ts = List.rev !arrivals in
  check_int "all arrived" 10 (List.length ts);
  let rec gaps = function a :: (b :: _ as rest) -> (b - a) :: gaps rest | _ -> [] in
  List.iter
    (fun gap ->
      check_bool "NIC spacing ~10ms" true
        (gap > Sim.Time_ns.ms 9 && gap < Sim.Time_ns.ms 12))
    (gaps ts)

let test_network_crash_and_partition () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.add_endpoint net ~id:0 ~category:Sim.Network.Node ~datacenter:0
    ~handler:(fun ~src:_ ~size:_ _ -> ());
  Sim.Network.add_endpoint net ~id:1 ~category:Sim.Network.Node ~datacenter:1
    ~handler:(fun ~src:_ ~size:_ _ -> incr got);
  Sim.Network.crash net 1;
  Sim.Network.send net ~src:0 ~dst:1 ~size:100 ();
  Sim.Engine.run e;
  check_int "crashed endpoint receives nothing" 0 !got;
  Sim.Network.recover net 1;
  Sim.Network.set_partition net (Some (fun id -> id));
  Sim.Network.send net ~src:0 ~dst:1 ~size:100 ();
  Sim.Engine.run e;
  check_int "partitioned pair drops" 0 !got;
  Sim.Network.set_partition net None;
  Sim.Network.send net ~src:0 ~dst:1 ~size:100 ();
  Sim.Engine.run e;
  check_int "healed partition delivers" 1 !got

let test_network_drop_probability () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.add_endpoint net ~id:0 ~category:Sim.Network.Node ~datacenter:0
    ~handler:(fun ~src:_ ~size:_ _ -> ());
  Sim.Network.add_endpoint net ~id:1 ~category:Sim.Network.Node ~datacenter:1
    ~handler:(fun ~src:_ ~size:_ _ -> incr got);
  Sim.Network.set_drop_probability net 0.5;
  for _ = 1 to 1000 do
    Sim.Network.send net ~src:0 ~dst:1 ~size:10 ()
  done;
  Sim.Engine.run e;
  check_bool "about half dropped" true (!got > 350 && !got < 650)

(* A warm send, from [send] through delivery, allocates nothing: envelopes
   and events come from freelists that grew to the 10,000 in flight, the
   endpoints are an array and the jitter draw is unboxed. *)
let test_network_warm_send_allocates_nothing () =
  let e = Sim.Engine.create () in
  let net = Sim.Network.create e ~rng:(Sim.Rng.create ~seed:1L) in
  let got = ref 0 in
  Sim.Network.add_endpoint net ~id:0 ~category:Sim.Network.Node ~datacenter:0
    ~handler:(fun ~src:_ ~size:_ _ -> ());
  Sim.Network.add_endpoint net ~id:1 ~category:Sim.Network.Node ~datacenter:3
    ~handler:(fun ~src:_ ~size:_ () -> incr got);
  let wave () =
    for _ = 1 to 10_000 do
      Sim.Network.send net ~src:0 ~dst:1 ~size:100 ()
    done;
    Sim.Engine.run e
  in
  wave ();
  let words = words_per_call ~n:1 wave /. 10_000. in
  check_int "both waves delivered" 20_000 !got;
  check_no_alloc "warm Network.send" words

(* A warm broadcast allocates nothing either: one record per broadcast,
   from a freelist that grew to the first wave's peak. *)
let test_network_warm_broadcast_allocates_nothing () =
  let e = Sim.Engine.create () in
  let net = Sim.Network.create e ~rng:(Sim.Rng.create ~seed:1L) in
  let n = 64 in
  let got = ref 0 in
  for id = 0 to n - 1 do
    Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node ~datacenter:(id mod 16)
      ~handler:(fun ~src:_ ~size:_ () -> incr got)
  done;
  let wave () =
    for i = 1 to 1_000 do
      Sim.Network.broadcast net ~src:(i mod n) ~size:100 ()
    done;
    Sim.Engine.run e
  in
  wave ();
  let before = Gc.minor_words () in
  wave ();
  let words = Gc.minor_words () -. before in
  check_int "both waves delivered" (2 * 1_000 * (n - 1)) !got;
  if words <> 0. then Alcotest.failf "1,000 warm broadcasts allocate %.0f words" words

(* A receiver with deliveries queued at its receive NIC crashes, then
   recovers before they fire.  The queued deliveries keep their times (the
   crash check runs when each fires, and the receiver is up again then);
   the recovery resets the NIC's horizon, so a message arriving after it
   is delivered first. *)
let test_network_recover_with_queued_deliveries () =
  let run ~crash =
    let e = Sim.Engine.create () in
    let net = Sim.Network.create e ~rng:(Sim.Rng.create ~seed:3L) in
    let got = ref [] in
    for id = 0 to 4 do
      Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node ~datacenter:0
        ~handler:(fun ~src ~size:_ () -> if id = 1 then got := (src, Sim.Engine.now e) :: !got)
    done;
    (* Three 10 ms messages reach node 1 by 12.25 ms and queue at its
       receive NIC: deliveries ~10 ms apart from ~20 ms on. *)
    List.iter (fun src -> Sim.Network.send net ~src ~dst:1 ~size:1_250_000 ()) [ 0; 2; 3 ];
    if crash then begin
      Sim.Engine.post_at e ~at:(Sim.Time_ns.ms 13) (fun () -> Sim.Network.crash net 1);
      Sim.Engine.post_at e ~at:(Sim.Time_ns.ms 14) (fun () ->
          Sim.Network.recover net 1;
          Sim.Network.send net ~src:4 ~dst:1 ~size:100 ())
    end;
    Sim.Engine.run e;
    List.rev !got
  in
  let plain = run ~crash:false and crashed = run ~crash:true in
  check_int "three deliveries without the crash" 3 (List.length plain);
  (match crashed with
  | (4, first) :: rest ->
      check_bool "the post-recovery message overtakes" true (first < Sim.Time_ns.ms 17);
      check_bool "queued deliveries keep their times" true (rest = plain)
  | _ -> Alcotest.fail "expected the post-recovery message first")

(* A copy's delivery seq is drawn when it arrives, as a post made then
   would draw it, not at send time: an event posted after the send for the
   very instant of the delivery fires first. *)
let test_network_delivery_seq_drawn_at_arrival () =
  let run ~probe_at =
    let e = Sim.Engine.create () in
    let net = Sim.Network.create e ~rng:(Sim.Rng.create ~seed:5L) in
    let order = ref [] in
    Sim.Network.add_endpoint net ~id:0 ~category:Sim.Network.Node ~datacenter:0
      ~handler:(fun ~src:_ ~size:_ () -> ());
    Sim.Network.add_endpoint net ~id:1 ~category:Sim.Network.Node ~datacenter:6
      ~handler:(fun ~src:_ ~size:_ () -> order := ("delivery", Sim.Engine.now e) :: !order);
    Sim.Network.broadcast net ~src:0 ~size:500 ();
    Option.iter
      (fun at -> Sim.Engine.post_at e ~at (fun () -> order := ("probe", at) :: !order))
      probe_at;
    Sim.Engine.run e;
    List.rev !order
  in
  match run ~probe_at:None with
  | [ ("delivery", at) ] ->
      Alcotest.(check (list (pair string int)))
        "the probe ties with the delivery and fires first"
        [ ("probe", at); ("delivery", at) ]
        (run ~probe_at:(Some at))
  | _ -> Alcotest.fail "expected one delivery"

(* The per-destination network the pooled record replaced, kept as the
   reference for [Sim.Network]: one copy per destination, two anonymous
   engine events per delivered copy (arrival at the receive NIC, then
   delivery at max(arrival, rx_free) + serialize), loss and jitter drawn
   per copy in destination order from its own generator. *)
module Ref_net = struct
  type ep = {
    category : Sim.Network.category;
    dc : int;
    tx_free : int array;
    rx_free : int array;
    mutable crashed : bool;
    mutable handler : src:int -> size:int -> int -> unit;
  }

  type t = {
    engine : Sim.Engine.t;
    rng : Sim.Rng.t;
    eps : ep array;
    mutable partition : (int -> int) option;
    mutable drop : float;
    mutable spike : (int -> int -> int) option;
    mutable sent : int;
    mutable bytes : int;
  }

  let create engine ~rng cats =
    {
      engine;
      rng;
      eps =
        Array.mapi
          (fun id category ->
            {
              category;
              dc = id mod 16;
              tx_free = [| 0; 0 |];
              rx_free = [| 0; 0 |];
              crashed = false;
              handler = (fun ~src:_ ~size:_ _ -> ());
            })
          cats;
      partition = None;
      drop = 0.0;
      spike = None;
      sent = 0;
      bytes = 0;
    }

  let nic ep ~peer =
    match (ep.category, peer) with
    | Sim.Network.Node, Sim.Network.Node -> 0
    | Sim.Network.Node, Sim.Network.Client -> 1
    | Sim.Network.Client, _ -> 0

  let send t ~src ~dst ~size payload =
    let se = t.eps.(src) and de = t.eps.(dst) in
    if not se.crashed then begin
      let wire = size + Sim.Network.per_message_overhead in
      let serialize = Sim.Time_ns.of_sec_f (float_of_int (wire * 8) /. 1e9) in
      t.sent <- t.sent + 1;
      t.bytes <- t.bytes + wire;
      let lost =
        (match t.partition with Some g -> g src <> g dst | None -> false)
        || (t.drop > 0.0 && Sim.Rng.float t.rng 1.0 < t.drop)
      in
      let now = Sim.Engine.now t.engine in
      let tx = nic se ~peer:de.category in
      let depart = max now se.tx_free.(tx) + serialize in
      se.tx_free.(tx) <- depart;
      if not lost then begin
        let jit = Sim.Rng.int t.rng (Sim.Time_ns.ms 2) in
        let spike = match t.spike with Some f -> f src dst | None -> 0 in
        let arrive = depart + Sim.Topology.latency se.dc de.dc + jit + spike in
        Sim.Engine.post_at t.engine ~at:arrive (fun () ->
            if not de.crashed then begin
              let rx = nic de ~peer:se.category in
              let deliver = max (Sim.Engine.now t.engine) de.rx_free.(rx) + serialize in
              de.rx_free.(rx) <- deliver;
              Sim.Engine.post_at t.engine ~at:deliver (fun () ->
                  if not de.crashed then de.handler ~src ~size payload)
            end)
      end
    end

  let broadcast t ~src ~size payload =
    Array.iteri
      (fun dst ep ->
        if dst <> src && ep.category = Sim.Network.Node then send t ~src ~dst ~size payload)
      t.eps

  let recover t id =
    let ep = t.eps.(id) in
    if ep.crashed then begin
      ep.crashed <- false;
      let now = Sim.Engine.now t.engine in
      Array.fill ep.tx_free 0 2 now;
      Array.fill ep.rx_free 0 2 now
    end
end

(* One network under test: the pooled [Sim.Network] or the reference. *)
type net_ops = {
  send : src:int -> dst:int -> size:int -> int -> unit;
  broadcast : src:int -> size:int -> int -> unit;
  crash : int -> unit;
  recover : int -> unit;
  partition : (int -> int) option -> unit;
  drop : float -> unit;
  spike : (int -> int -> int) option -> unit;
}

type net_action =
  | Unicast of int * int * int  (* src, dst, size *)
  | Bcast of int * int  (* src, size *)
  | Crash of int
  | Recover of int
  | Partition of int  (* group = id mod k; 1 heals *)
  | Drop of int  (* percent *)
  | Spike of bool

let n_net = 7

(* Endpoints 0-4 are nodes, 5-6 clients: both NICs of a node are used. *)
let net_categories =
  Array.init n_net (fun id -> if id < 5 then Sim.Network.Node else Sim.Network.Client)

let print_net_action (at, a) =
  Printf.sprintf "%dms:%s" at
    (match a with
    | Unicast (s, d, z) -> Printf.sprintf "send %d->%d %dB" s d z
    | Bcast (s, z) -> Printf.sprintf "bcast %d %dB" s z
    | Crash i -> Printf.sprintf "crash %d" i
    | Recover i -> Printf.sprintf "recover %d" i
    | Partition k -> Printf.sprintf "partition mod %d" k
    | Drop p -> Printf.sprintf "drop %d%%" p
    | Spike b -> Printf.sprintf "spike %b" b)

(* Run one schedule on one network; the trace is every delivery in order,
   with its time, source, destination and payload.  A handler forwards
   some deliveries (unicast or broadcast) while the payload's hop budget
   lasts, so sends also start from inside deliveries. *)
let run_net_schedule ~make schedule =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:17L in
  let trace = ref [] in
  let ops_ref = ref None in
  let handler dst ~src ~size payload =
    trace := (Sim.Engine.now e, src, dst, payload) :: !trace;
    let hops = payload land 3 in
    match !ops_ref with
    | Some ops when hops > 0 && (payload + dst) mod 3 = 0 ->
        let next = ((payload lsr 2) * 4) + 4 + (hops - 1) in
        if (payload + src) mod 2 = 0 then ops.broadcast ~src:dst ~size next
        else ops.send ~src:dst ~dst:((dst + src + 1) mod n_net) ~size:(size + 7) next
    | Some _ | None -> ()
  in
  let ops, counters = make e rng handler in
  ops_ref := Some ops;
  List.iteri
    (fun i (at, action) ->
      let payload = (i * 4) + 2 in
      Sim.Engine.post_at e ~at:(Sim.Time_ns.ms at) (fun () ->
          match action with
          | Unicast (src, dst, size) -> ops.send ~src ~dst ~size payload
          | Bcast (src, size) -> ops.broadcast ~src ~size payload
          | Crash id -> ops.crash id
          | Recover id -> ops.recover id
          | Partition 1 -> ops.partition None
          | Partition k -> ops.partition (Some (fun id -> id mod k))
          | Drop p -> ops.drop (float_of_int p /. 100.)
          | Spike on ->
              ops.spike
                (if on then Some (fun s d -> if (s + d) mod 3 = 0 then Sim.Time_ns.ms 40 else 0)
                 else None)))
    schedule;
  Sim.Engine.run e;
  let sent, bytes = counters () in
  (List.rev !trace, sent, bytes, Sim.Engine.events_executed e)

let pooled_net e rng handler =
  let net = Sim.Network.create e ~rng in
  Array.iteri
    (fun id category ->
      Sim.Network.add_endpoint net ~id ~category ~datacenter:(id mod 16) ~handler:(handler id))
    net_categories;
  ( {
      send = (fun ~src ~dst ~size p -> Sim.Network.send net ~src ~dst ~size p);
      broadcast = (fun ~src ~size p -> Sim.Network.broadcast net ~src ~size p);
      crash = Sim.Network.crash net;
      recover = Sim.Network.recover net;
      partition = Sim.Network.set_partition net;
      drop = Sim.Network.set_drop_probability net;
      spike = Sim.Network.set_link_latency net;
    },
    fun () -> (Sim.Network.messages_sent net, Sim.Network.bytes_sent net) )

let reference_net e rng handler =
  let net = Ref_net.create e ~rng net_categories in
  Array.iteri (fun id ep -> ep.Ref_net.handler <- handler id) net.Ref_net.eps;
  ( {
      send = (fun ~src ~dst ~size p -> Ref_net.send net ~src ~dst ~size p);
      broadcast = (fun ~src ~size p -> Ref_net.broadcast net ~src ~size p);
      crash = (fun id -> net.Ref_net.eps.(id).Ref_net.crashed <- true);
      recover = Ref_net.recover net;
      partition = (fun p -> net.Ref_net.partition <- p);
      drop = (fun p -> net.Ref_net.drop <- p);
      spike = (fun f -> net.Ref_net.spike <- f);
    },
    fun () -> (net.Ref_net.sent, net.Ref_net.bytes) )

let prop_network_matches_reference =
  let open QCheck.Gen in
  let id = int_range 0 (n_net - 1) in
  let size = oneof [ int_range 1 2_000; int_range 100_000 1_500_000 ] in
  let action =
    frequency
      [
        (5, map3 (fun s d z -> Unicast (s, d, z)) id id size);
        (4, map2 (fun s z -> Bcast (s, z)) id size);
        (2, map (fun i -> Crash i) id);
        (2, map (fun i -> Recover i) id);
        (1, map (fun k -> Partition k) (int_range 1 3));
        (1, map (fun p -> Drop p) (oneofl [ 0; 0; 10; 40 ]));
        (1, map (fun b -> Spike b) bool);
      ]
  in
  QCheck.Test.make ~name:"pooled records match the per-destination reference" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_net_action)
       (list_size (int_range 1 40) (pair (int_range 0 150) action)))
    (fun schedule ->
      run_net_schedule ~make:pooled_net schedule = run_net_schedule ~make:reference_net schedule)

let test_network_charge () =
  let e, net = make_net () in
  Sim.Network.add_endpoint net ~id:0 ~category:Sim.Network.Node ~datacenter:0
    ~handler:(fun ~src:_ ~size:_ _ -> ());
  (* 1.25 MB at 1 Gbps = 10 ms. *)
  let d1 = Sim.Network.charge net ~endpoint:0 ~dir:`Tx ~peer:Sim.Network.Node ~bytes:1_250_000 in
  check_bool "first charge ~10ms" true (d1 > Sim.Time_ns.ms 9 && d1 < Sim.Time_ns.ms 11);
  let d2 = Sim.Network.charge net ~endpoint:0 ~dir:`Tx ~peer:Sim.Network.Node ~bytes:1_250_000 in
  check_bool "charges accumulate" true (d2 > Sim.Time_ns.ms 19);
  (* The client-facing NIC is independent. *)
  let d3 =
    Sim.Network.charge net ~endpoint:0 ~dir:`Tx ~peer:Sim.Network.Client ~bytes:1_250_000
  in
  check_bool "separate NIC unaffected" true (d3 < Sim.Time_ns.ms 11);
  ignore e

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf;
          Alcotest.test_case "golden stream" `Quick test_rng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        ] );
      ( "event queue",
        [
          qc prop_queue_order_fifo;
          qc prop_queue_cancel;
          Alcotest.test_case "level boundary crossings" `Quick test_queue_boundary_times;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO at equal time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "until is monotonic" `Quick test_engine_until_non_monotonic;
          Alcotest.test_case "pending excludes cancelled" `Quick
            test_engine_pending_excludes_cancelled;
          Alcotest.test_case "cancel releases closure" `Quick
            test_engine_cancel_releases_closure;
          Alcotest.test_case "post recycles records" `Quick test_engine_post_recycles;
          Alcotest.test_case "warm post allocates nothing" `Quick
            test_engine_warm_post_allocates_nothing;
          Alcotest.test_case "owned record keeps (time, seq) order" `Quick
            test_engine_owned_keeps_seq_order;
          qc prop_engine_matches_model;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "series" `Quick test_series;
        ] );
      ( "topology",
        [
          Alcotest.test_case "symmetry" `Quick test_topology_symmetry;
          Alcotest.test_case "sane values" `Quick test_topology_sane_values;
          Alcotest.test_case "assignment" `Quick test_topology_assignment;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_network_delivery;
          Alcotest.test_case "bandwidth serialization" `Quick test_network_bandwidth_serialization;
          Alcotest.test_case "crash and partition" `Quick test_network_crash_and_partition;
          Alcotest.test_case "drop probability" `Quick test_network_drop_probability;
          Alcotest.test_case "charge" `Quick test_network_charge;
          Alcotest.test_case "warm send allocates nothing" `Quick
            test_network_warm_send_allocates_nothing;
          Alcotest.test_case "warm broadcast allocates nothing" `Quick
            test_network_warm_broadcast_allocates_nothing;
          Alcotest.test_case "recover with queued deliveries" `Quick
            test_network_recover_with_queued_deliveries;
          Alcotest.test_case "delivery seq drawn at arrival" `Quick
            test_network_delivery_seq_drawn_at_arrival;
          qc prop_network_matches_reference;
        ] );
    ]
