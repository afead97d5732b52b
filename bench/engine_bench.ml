(* Raw simulator-engine throughput microbenchmark.

   Measures events/sec of the DES core (`Sim.Engine` + `Sim.Network`) under
   two synthetic loads, independent of any protocol logic:

   - timer-heavy: a population of self-rescheduling timers with heavy
     cancel churn and a sprinkle of far-future timers, the shape of
     protocol timeouts (batch/epoch/view-change timers, most of which are
     cancelled before firing);
   - message-heavy: a forwarding mesh over the WAN topology plus a periodic
     all-peers broadcast, the shape of the NIC serialization/delivery path
     (two engine events per delivered copy; a broadcast's copies share one
     queued record, so [final_pending] counts records, not copies).

   `dune exec bench/engine_bench.exe` prints both mixes;
   `-- --json DIR` additionally writes DIR/BENCH_engine.json;
   `-- --quick` runs a CI-sized load.

   Unlike the figure baselines, events/sec here is a *host* measurement:
   compare runs on the same machine (the committed baseline pins the
   reference container's trajectory, not a portable constant).  The
   simulated workload itself is deterministic: `sim_events` and
   `final_pending` are diff-stable. *)

module Engine = Sim.Engine
module Time_ns = Sim.Time_ns

type row = {
  name : string;
  events : int;
  wall_s : float;
  pending_end : int;
}

let drain_events engine ~target =
  let t0 = Unix.gettimeofday () in
  while Engine.events_executed engine < target && Engine.step engine do
    ()
  done;
  Unix.gettimeofday () -. t0

(* ------------------------------------------------------------------ *)

let timer_mix ~target =
  let engine = Engine.create () in
  let rng = Sim.Rng.create ~seed:7L in
  (* Paper-scale pending population: n=128 with a large client pool keeps
     O(100k) timers in flight (retransmission timers, batch timeouts,
     per-instance view-change timers). *)
  let population = 100_000 in
  (* Cancel churn, the retransmission-timer pattern: each delivery acts as a
     cumulative ack — it cancels the retransmission timers of the acked
     window (still live: retransmission timeouts are long, acks are fast)
     and re-arms them for the next in-flight window.  Protocol timers are
     overwhelmingly cancelled, not fired. *)
  let window = 2 in
  let ring = Array.make 32_768 None in
  let cursor = ref 0 in
  let noop () = () in
  let pick_delay () =
    let r = Sim.Rng.int rng 100 in
    if r = 0 then Time_ns.sec (20 + Sim.Rng.int rng 20) (* far future *)
    else if r < 70 then Time_ns.us (10 + Sim.Rng.int rng 2000) (* near *)
    else Time_ns.ms (1 + Sim.Rng.int rng 200)
  in
  (* One shared closure for the whole population (the per-firing state lives
     in [ring]/[cursor]), armed through the fire-and-forget [post] path: the
     benchmark measures the engine, not the harness's closure allocation. *)
  let rec body () =
    for _ = 1 to window do
      (match ring.(!cursor) with
      | Some id -> Engine.cancel engine id
      | None -> ());
      ring.(!cursor) <-
        Some
          (Engine.schedule engine
             ~delay:(Time_ns.ms (300 + Sim.Rng.int rng 700))
             noop);
      cursor := (!cursor + 1) mod Array.length ring
    done;
    Engine.post engine ~delay:(pick_delay ()) body
  in
  for _ = 1 to population do
    Engine.post engine ~delay:(pick_delay ()) body
  done;
  let wall_s = drain_events engine ~target in
  {
    name = "timer-heavy";
    events = Engine.events_executed engine;
    wall_s;
    pending_end = Engine.pending engine;
  }

(* ------------------------------------------------------------------ *)

let message_mix ~target =
  let engine = Engine.create () in
  let rng = Sim.Rng.create ~seed:11L in
  let net = Sim.Network.create engine ~rng in
  let n = 32 in
  for id = 0 to n - 1 do
    Sim.Network.add_endpoint net ~id ~category:Sim.Network.Node
      ~datacenter:(id mod Array.length Sim.Topology.datacenters)
      ~handler:(fun ~src:_ ~size:_ hops ->
        if hops > 0 then
          let size = 128 + (64 * (hops mod 8)) in
          Sim.Network.send net ~src:id ~dst:((id + 7) mod n) ~size (hops - 1))
  done;
  (* Steady forwarding population: each delivery forwards once. *)
  for m = 0 to 2047 do
    Sim.Network.send net ~src:(m mod n) ~dst:((m + 7) mod n) ~size:256 max_int
  done;
  (* Periodic protocol-style broadcast: node 0 sends to every peer. *)
  let rec broadcast () =
    Sim.Network.broadcast net ~src:0 ~size:1024 0;
    ignore (Engine.schedule engine ~delay:(Time_ns.ms 5) broadcast)
  in
  broadcast ();
  let wall_s = drain_events engine ~target in
  {
    name = "message-heavy";
    events = Engine.events_executed engine;
    wall_s;
    pending_end = Engine.pending engine;
  }

(* ------------------------------------------------------------------ *)

let row_json r =
  Obs.Jsonx.Obj
    [
      ("name", Obs.Jsonx.String r.name);
      ("events", Obs.Jsonx.Int r.events);
      ("wall_s", Obs.Jsonx.Float r.wall_s);
      ( "events_per_sec",
        Obs.Jsonx.Float (float_of_int r.events /. Float.max 1e-9 r.wall_s) );
      ("final_pending", Obs.Jsonx.Int r.pending_end);
    ]

let () =
  let quick = ref false and json_dir = ref None and scale = ref 1.0 in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: dir :: rest ->
        json_dir := Some dir;
        parse rest
    | "--scale" :: s :: rest ->
        scale := float_of_string s;
        parse rest
    | arg :: _ ->
        Printf.eprintf "usage: engine_bench [--quick] [--scale X] [--json DIR] (got %S)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let base = if !quick then 150_000 else 4_000_000 in
  let target = int_of_float (float_of_int base *. !scale) in
  let rows = [ timer_mix ~target; message_mix ~target ] in
  List.iter
    (fun r ->
      Printf.printf "%-14s %9d events in %6.2fs  =  %10.0f events/s  (pending at end: %d)\n%!"
        r.name r.events r.wall_s
        (float_of_int r.events /. Float.max 1e-9 r.wall_s)
        r.pending_end)
    rows;
  match !json_dir with
  | None -> ()
  | Some dir ->
      let rec mkdirs d =
        if not (Sys.file_exists d) then begin
          let parent = Filename.dirname d in
          if parent <> d then mkdirs parent;
          try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        end
      in
      mkdirs dir;
      let json =
        Obs.Jsonx.Obj
          [
            ("bench", Obs.Jsonx.String "engine");
            ("host_dependent", Obs.Jsonx.Bool true);
            ("quick", Obs.Jsonx.Bool !quick);
            ("mixes", Obs.Jsonx.List (List.map row_json rows));
          ]
      in
      let file = Filename.concat dir "BENCH_engine.json" in
      let oc = open_out file in
      output_string oc (Obs.Jsonx.to_string json);
      output_char oc '\n';
      close_out oc;
      Printf.printf "[wrote %s]\n%!" file
