(* Outside-in profile of one [Sim.Engine.run].

   The layers call one another inside the engine loop, so the bench cannot
   time a call between them.  Instead an ITIMER_PROF timer interrupts the
   process every [interval_s] of CPU time (the kernel rounds that up to its
   scheduler tick) and the handler records the interrupted OCaml stack.  A sample's self layer is the layer of its
   innermost lib/ frame: stdlib frames (Hashtbl, Array, ...) above it are
   folded into that caller.  Its inclusive layers are every layer with a
   frame anywhere on the stack.

   OCaml runs signal handlers at the next allocation or poll point, so a
   sample lands at a safe point shortly after the timer fired, not at the
   exact instruction.  Time spent inside the garbage collector is charged to
   the allocating frame; [gc_pause_s] reports it separately, read from the
   runtime's own event ring (stdlib [runtime_events]), which the handler
   drains at every sample so that it cannot overflow. *)

let interval_s = 0.001
let max_depth = 256

type profile = {
  samples : int;
  self : int array;  (** per layer, in {!Layers.all} order *)
  incl : int array;
  gc_pause_s : float;  (** minor collections plus major slices *)
}

let layers = Array.of_list Layers.all
let num_layers = Array.length layers

let index_of layer =
  let rec go i = if layers.(i) = layer then i else go (i + 1) in
  go 0

let other_index = index_of Layers.other

type t = {
  mutable samples : int;
  self : int array;
  incl : int array;
  on_stack : bool array;
  layer_of_file : (string, int) Hashtbl.t;  (** -1: not a lib/ file *)
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  gc_pause_ns : int64 ref;
}

let file_layer t file =
  match Hashtbl.find_opt t.layer_of_file file with
  | Some i -> i
  | None ->
      let i = match Layers.of_file file with Some l -> index_of l | None -> -1 in
      Hashtbl.add t.layer_of_file file i;
      i

let poll_gc t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

let on_sample t =
  t.samples <- t.samples + 1;
  Array.fill t.on_stack 0 num_layers false;
  let innermost = ref (-1) in
  (match Printexc.backtrace_slots (Printexc.get_callstack max_depth) with
  | None -> ()
  | Some slots ->
      Array.iter
        (fun slot ->
          match Printexc.Slot.location slot with
          | None -> ()
          | Some loc ->
              let i = file_layer t loc.Printexc.filename in
              if i >= 0 then begin
                if !innermost < 0 then innermost := i;
                t.on_stack.(i) <- true
              end)
        slots);
  let self = if !innermost < 0 then other_index else !innermost in
  t.self.(self) <- t.self.(self) + 1;
  t.on_stack.(self) <- true;
  Array.iteri (fun i seen -> if seen then t.incl.(i) <- t.incl.(i) + 1) t.on_stack;
  poll_gc t

let is_pause = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

(* Starts the runtime event ring (one per process; the runtime deletes its
   file at exit) and the profiling timer.  At most one sampler per process. *)
let start () =
  Runtime_events.start ();
  let gc_open = Hashtbl.create 4 and gc_pause_ns = ref 0L in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _domain ts phase ->
        if is_pause phase then Hashtbl.replace gc_open phase (Runtime_events.Timestamp.to_int64 ts))
      ~runtime_end:(fun _domain ts phase ->
        match Hashtbl.find_opt gc_open phase with
        | Some t0 ->
            Hashtbl.remove gc_open phase;
            gc_pause_ns := Int64.add !gc_pause_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
        | None -> ())
      ()
  in
  let t =
    {
      samples = 0;
      self = Array.make num_layers 0;
      incl = Array.make num_layers 0;
      on_stack = Array.make num_layers false;
      layer_of_file = Hashtbl.create 64;
      cursor = Runtime_events.create_cursor None;
      callbacks;
      gc_pause_ns;
    }
  in
  (* Discard what the ring holds from before the measured interval. *)
  poll_gc t;
  gc_pause_ns := 0L;
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> on_sample t));
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval_s; it_value = interval_s });
  t

let stop t =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  poll_gc t;
  Runtime_events.free_cursor t.cursor;
  { samples = t.samples; self = t.self; incl = t.incl; gc_pause_s = Int64.to_float !(t.gc_pause_ns) /. 1e9 }
