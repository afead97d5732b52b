(* Request-lifecycle tracer.

   Records (request, phase, node, virtual time) events against the
   simulation clock.  Discipline (DESIGN.md §8):

   - instrumentation sites hold an [t option]; with no tracer installed the
     hot path pays one pointer comparison and allocates nothing;
   - sampling is deterministic — request [r] is traced iff its mixed key
     is a multiple of [sample] ({!sampled}) — so traced runs of the same
     seed always sample the same requests;
   - memory is bounded: at most [max_events] events are kept, later ones
     are counted in [dropped] instead of stored.  Events live in parallel
     int arrays (no per-event boxing). *)

type phase = Submit | Enqueue | Cut | Sb_broadcast | Commit | Deliver | Reply

let phase_index = function
  | Submit -> 0
  | Enqueue -> 1
  | Cut -> 2
  | Sb_broadcast -> 3
  | Commit -> 4
  | Deliver -> 5
  | Reply -> 6

let num_phases = 7

let phase_of_index = function
  | 0 -> Submit
  | 1 -> Enqueue
  | 2 -> Cut
  | 3 -> Sb_broadcast
  | 4 -> Commit
  | 5 -> Deliver
  | 6 -> Reply
  | i -> invalid_arg (Printf.sprintf "Tracer.phase_of_index: %d" i)

let phase_name = function
  | Submit -> "submit"
  | Enqueue -> "enqueue"
  | Cut -> "cut"
  | Sb_broadcast -> "sb_broadcast"
  | Commit -> "commit"
  | Deliver -> "deliver"
  | Reply -> "reply"

let all_phases = [ Submit; Enqueue; Cut; Sb_broadcast; Commit; Deliver; Reply ]

type t = {
  engine : Sim.Engine.t;
  sample : int;
  max_events : int;
  (* Parallel arrays; [size] live entries. *)
  mutable e_req : int array;
  mutable e_node : int array;
  mutable e_phase : int array;
  mutable e_at : int array;
  mutable size : int;
  mutable dropped : int;
  once : (int, unit) Hashtbl.t;  (* (req * num_phases + phase) recorded via event_once *)
}

let create ?(sample = 1) ?(max_events = 262_144) ~engine () =
  if sample < 1 then invalid_arg "Tracer.create: sample must be >= 1";
  {
    engine;
    sample;
    max_events;
    e_req = [||];
    e_node = [||];
    e_phase = [||];
    e_at = [||];
    size = 0;
    dropped = 0;
    once = Hashtbl.create 4096;
  }

(* A key's low bits are its timestamp (Proto.Request.id_key): mix it as
   Proto.Request.Key_tbl's hash does, or every ts = 0 would be kept. *)
let sampled t ~req =
  let h = req * 0x9E3779B97F4A7C1 in
  ((h lxor (h lsr 32)) land max_int) mod t.sample = 0

let num_events t = t.size
let dropped t = t.dropped

let grow t =
  let cap = Array.length t.e_req in
  if t.size = cap then begin
    let ncap = Stdlib.min t.max_events (Stdlib.max 1024 (cap * 2)) in
    let extend a = let n = Array.make ncap 0 in Array.blit a 0 n 0 t.size; n in
    t.e_req <- extend t.e_req;
    t.e_node <- extend t.e_node;
    t.e_phase <- extend t.e_phase;
    t.e_at <- extend t.e_at
  end

let record t ~req ~node ~at phase =
  if sampled t ~req then begin
    if t.size >= t.max_events then t.dropped <- t.dropped + 1
    else begin
      grow t;
      t.e_req.(t.size) <- req;
      t.e_node.(t.size) <- node;
      t.e_phase.(t.size) <- phase_index phase;
      t.e_at.(t.size) <- at;
      t.size <- t.size + 1
    end
  end

let event t ~req ~node phase = record t ~req ~node ~at:(Sim.Engine.now t.engine) phase

let event_once t ~req ~node phase =
  if sampled t ~req then begin
    let key = (req * num_phases) + phase_index phase in
    if not (Hashtbl.mem t.once key) then begin
      Hashtbl.replace t.once key ();
      event t ~req ~node phase
    end
  end

let iter t f =
  for i = 0 to t.size - 1 do
    f ~req:t.e_req.(i) ~node:t.e_node.(i) ~at:t.e_at.(i) (phase_of_index t.e_phase.(i))
  done

(* ------------------------------------------------------------------ *)
(* JSONL export: one event per line, in recording order. *)

let jsonl_to_buffer t buf =
  iter t (fun ~req ~node ~at phase ->
      Jsonx.to_buffer buf
        (Jsonx.Obj
           [
             ("req", Jsonx.Int req);
             ("phase", Jsonx.String (phase_name phase));
             ("node", Jsonx.Int node);
             ("t", Jsonx.Float (Sim.Time_ns.to_sec_f at));
           ]);
      Buffer.add_char buf '\n');
  if t.dropped > 0 then begin
    Jsonx.to_buffer buf (Jsonx.Obj [ ("dropped_events", Jsonx.Int t.dropped) ]);
    Buffer.add_char buf '\n'
  end

let to_jsonl_string t =
  let buf = Buffer.create (64 * (t.size + 1)) in
  jsonl_to_buffer t buf;
  Buffer.contents buf

let write_jsonl t oc =
  let buf = Buffer.create (64 * (t.size + 1)) in
  jsonl_to_buffer t buf;
  Buffer.output_buffer oc buf

(* ------------------------------------------------------------------ *)
(* Per-phase latency breakdown.

   For each traced request, the time of the FIRST occurrence of each phase
   is kept (commit/deliver fire once per node; the earliest is the
   protocol-level event).  Adjacent present phases then contribute one
   sample to the corresponding transition histogram, and submit -> reply
   contributes to the end-to-end histogram. *)

let breakdown t =
  let firsts : (int, int array) Hashtbl.t = Hashtbl.create 4096 in
  iter t (fun ~req ~node:_ ~at phase ->
      let arr =
        match Hashtbl.find_opt firsts req with
        | Some a -> a
        | None ->
            let a = Array.make num_phases min_int in
            Hashtbl.replace firsts req a;
            a
      in
      let p = phase_index phase in
      if arr.(p) = min_int || at < arr.(p) then arr.(p) <- at);
  let transitions =
    List.map
      (fun (a, b) ->
        ( Printf.sprintf "%s -> %s" (phase_name a) (phase_name b),
          phase_index a,
          phase_index b,
          Sim.Metrics.Histogram.create () ))
      [
        (Submit, Enqueue);
        (Enqueue, Cut);
        (Cut, Sb_broadcast);
        (Sb_broadcast, Commit);
        (Commit, Deliver);
        (Deliver, Reply);
        (Submit, Reply);
      ]
  in
  Hashtbl.iter
    (fun _req arr ->
      List.iter
        (fun (_, a, b, hist) ->
          if arr.(a) <> min_int && arr.(b) <> min_int && arr.(b) >= arr.(a) then
            Sim.Metrics.Histogram.add hist (Sim.Time_ns.to_sec_f (arr.(b) - arr.(a))))
        transitions)
    firsts;
  List.map (fun (label, _, _, hist) -> (label, hist)) transitions

let pp_breakdown fmt t =
  Format.fprintf fmt "per-phase latency breakdown (traced requests: %d events, %d dropped)@."
    t.size t.dropped;
  Format.fprintf fmt "  %-26s %8s %10s %10s %10s %10s@." "transition" "samples" "mean" "p50"
    "p95" "p99";
  List.iter
    (fun (label, hist) ->
      let n = Sim.Metrics.Histogram.count hist in
      if n > 0 then
        Format.fprintf fmt "  %-26s %8d %9.4fs %9.4fs %9.4fs %9.4fs@." label n
          (Sim.Metrics.Histogram.mean hist)
          (Sim.Metrics.Histogram.percentile hist 50.0)
          (Sim.Metrics.Histogram.percentile hist 95.0)
          (Sim.Metrics.Histogram.percentile hist 99.0)
      else Format.fprintf fmt "  %-26s %8d@." label n)
    (breakdown t)
