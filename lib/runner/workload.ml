module Time_ns = Sim.Time_ns
module Engine = Sim.Engine

type shape =
  | Steady
  | Flash_crowd of { at_s : float; factor : float; len_s : float }
  | Hot_bucket of { skew : float }

let shape_name = function
  | Steady -> "steady"
  | Flash_crowd _ -> "flash-crowd"
  | Hot_bucket _ -> "hot-bucket"

let tick = Time_ns.ms 10

(* Find a live node whose epoch is furthest along — the reference for the
   current bucket-to-leader assignment (a real client learns it from a
   quorum of Bucket_update messages; the furthest node's view is what the
   quorum converges to). *)
let reference_node (cluster : Cluster.t) =
  let nodes = Cluster.nodes cluster in
  let best = ref None in
  Array.iter
    (fun node ->
      if not (Core.Node.is_halted node) then
        match !best with
        | Some b when Core.Node.current_epoch b >= Core.Node.current_epoch node -> ()
        | Some _ | None -> best := Some node)
    nodes;
  !best

let start ~cluster ~rate ?(num_clients = 2048) ?(resubmit = false) ?(shape = Steady)
    ?retry_budget ?(shape_seed = 1L) ?sweep_until ~until () =
  assert (rate > 0.0);
  (* Submission stops at [until]; the resubmission sweeper may need to keep
     chasing stalled requests through a post-fault grace period. *)
  let sweep_until = match sweep_until with Some t -> max t until | None -> until in
  let engine = Cluster.engine cluster in
  let net = Cluster.network cluster in
  let config = Cluster.config cluster in
  let nodes = Cluster.nodes cluster in
  let num_buckets = Core.Config.num_buckets config in
  let placement = Sim.Topology.assign_uniform ~n:(Array.length nodes) in
  let next_ts = Array.make num_clients 0 in
  let client_base = 100_000 in
  let acc = ref 0.0 in
  let rr = ref 0 in
  let per_tick = rate *. Time_ns.to_sec_f tick in
  (* Hot-bucket machinery (allocated but untouched for other shapes): a
     Zipf draw picks the target bucket, and per-bucket rosters track which
     client's *next* timestamp maps there — bucket_of_id mixes client and
     timestamp, so a fixed client does not make a fixed bucket hot.  Roster
     entries are lazily invalidated: a client submitted through the
     round-robin fallback leaves a stale (client, ts) pair behind, dropped
     when popped. *)
  let shape_rng = Sim.Rng.create ~seed:shape_seed in
  let bucket_of_next c =
    Proto.Request.bucket_of_id ~num_buckets
      { Proto.Request.client = client_base + c; ts = next_ts.(c) }
  in
  let roster = Array.init num_buckets (fun _ -> Queue.create ()) in
  let enroll c = Queue.push (c, next_ts.(c)) roster.(bucket_of_next c) in
  let hot = match shape with Hot_bucket _ -> true | _ -> false in
  if hot then
    for c = 0 to num_clients - 1 do
      enroll c
    done;
  let rec roster_take b =
    match Queue.take_opt roster.(b) with
    | None -> None
    | Some (c, ts) -> if next_ts.(c) = ts then Some c else roster_take b
  in
  let pick_client () =
    let fallback () =
      let c = !rr mod num_clients in
      rr := !rr + 1;
      c
    in
    match shape with
    | Hot_bucket { skew } -> (
        let b = Sim.Rng.zipf shape_rng ~n:num_buckets ~s:skew - 1 in
        match roster_take b with Some c -> c | None -> fallback ())
    | Steady | Flash_crowd _ -> fallback ()
  in
  (* Offered-load multiplier for the current tick.  The [Steady] arm must
     stay the bare accumulator addition: any shared float detour would
     perturb schedules pinned by conformance fingerprints. *)
  let tick_quota now =
    match shape with
    | Steady -> per_tick
    | Flash_crowd { at_s; factor; len_s } ->
        let now_s = Time_ns.to_sec_f now in
        if now_s >= at_s && now_s < at_s +. len_s then per_tick *. factor else per_tick
    | Hot_bucket _ -> per_tick
  in
  let outstanding : (Proto.Request.t * int ref) Queue.t = Queue.create () in
  (* Client watermark gate (§3.7): a real client cannot submit timestamp
     [ts] before [ts - window] reached a terminal state — the reply quorum
     for it is what advances the client's window.  Modeled clients must
     honour the same bound or overload runs outrun the window: a shed
     request's retransmission can then be ordered in a lagging segment
     *after* (in sequence-number order) requests a full window above it,
     which the conformance checker rightly flags.  Gating is the source
     backpressure a real deployment gets for free.  Runs without
     resubmission keep the ungated open-loop arrivals the figures were
     measured with. *)
  let window = Core.Config.client_watermark_window in
  let window_open c =
    let ts = next_ts.(c) in
    ts < window
    || (not resubmit)
    || Cluster.request_terminal cluster
         { Proto.Request.client = client_base + c; ts = ts - window }
  in
  let pick_open_client () =
    let rec go tries =
      if tries > num_clients then None
      else
        let c = pick_client () in
        if window_open c then Some c else go (tries + 1)
    in
    go 0
  in
  let submit_one ~ref_node ~at offset =
    match ref_node with
    | None -> ()
    | Some ref_node -> (
      match pick_open_client () with
      | None -> ()
      | Some c ->
        let client = client_base + c in
        let ts = next_ts.(c) in
        next_ts.(c) <- ts + 1;
        if hot then enroll c;
        let submitted_at = Time_ns.add at offset in
        let r =
          Proto.Request.make ~client ~ts ~signed:(Core.Config.client_signatures config)
            ~submitted_at ()
        in
        Cluster.note_submitted cluster r;
        (* Submit = the client handing the request to its NIC: the origin of
           every lifecycle trace.  Node -1 marks the client side. *)
        (match Cluster.tracer cluster with
        | None -> ()
        | Some tr ->
            Obs.Tracer.record tr
              ~req:(Proto.Request.id_key r.Proto.Request.id)
              ~node:(-1) ~at:submitted_at Obs.Tracer.Submit);
        if resubmit then Queue.push (r, ref 0) outstanding;
        let bucket = Proto.Request.bucket_of_id ~num_buckets r.Proto.Request.id in
        let client_dc = Cluster.client_datacenter cluster ~client in
        List.iter
          (fun dst ->
            if not (Core.Node.is_halted nodes.(dst)) then begin
              let node_dc = placement.(dst) in
              let prop = Sim.Topology.latency client_dc node_dc in
              let queue =
                Sim.Network.charge net ~endpoint:dst ~dir:`Rx ~peer:Sim.Network.Client
                  ~bytes:(Proto.Request.wire_size r + 80)
              in
              Engine.post_at engine
                ~at:(Time_ns.add submitted_at (prop + queue))
                (fun () -> Core.Node.submit nodes.(dst) r)
            end)
          (Core.Bucket_assignment.client_targets ~n:config.Core.Config.n
             ~epoch:(Core.Node.current_epoch ref_node)
             ~current:(Core.Node.bucket_leader ref_node ~bucket)
             bucket))
  in
  let deliver_to ~dst (r : Proto.Request.t) =
    if not (Core.Node.is_halted nodes.(dst)) then begin
      let client_dc = Cluster.client_datacenter cluster ~client:r.id.Proto.Request.client in
      let prop = Sim.Topology.latency client_dc placement.(dst) in
      let queue =
        Sim.Network.charge net ~endpoint:dst ~dir:`Rx ~peer:Sim.Network.Client
          ~bytes:(Proto.Request.wire_size r + 80)
      in
      Engine.post engine ~delay:(prop + queue) (fun () -> Core.Node.submit nodes.(dst) r)
    end
  in
  let rec sweeper () =
    if resubmit && Engine.now engine <= sweep_until then begin
      (match reference_node cluster with
      | Some ref_node ->
          let pending = Queue.length outstanding in
          for _ = 1 to pending do
            match Queue.take_opt outstanding with
            | None -> ()
            | Some ((r, resends) as entry) ->
                if not (Cluster.request_terminal cluster r.Proto.Request.id) then begin
                  (* Only requests that have clearly stalled are re-sent
                     (the paper's clients resubmit at epoch transitions;
                     5 s approximates an epoch under load). *)
                  if Time_ns.diff (Engine.now engine) r.Proto.Request.submitted_at
                     > Time_ns.sec 5
                  then begin
                    match retry_budget with
                    | Some budget when !resends >= budget ->
                        (* Retry budget spent: the client abandons the
                           request instead of chasing it forever, and it
                           leaves [outstanding] for good. *)
                        Cluster.note_gave_up cluster r
                    | Some _ | None ->
                        incr resends;
                        let bucket =
                          Proto.Request.bucket_of_id ~num_buckets r.Proto.Request.id
                        in
                        deliver_to ~dst:(Core.Node.bucket_leader ref_node ~bucket) r;
                        Queue.push entry outstanding
                  end
                  else Queue.push entry outstanding
                end
          done
      | None -> ());
      Engine.post engine ~delay:(Time_ns.sec 2) (fun () -> sweeper ())
    end
  in
  if resubmit then Engine.post engine ~delay:(Time_ns.sec 2) (fun () -> sweeper ());
  let rec tick_loop () =
    let now = Engine.now engine in
    if now <= until then begin
      acc := !acc +. tick_quota now;
      let k = int_of_float !acc in
      acc := !acc -. float_of_int k;
      let ref_node = if k > 0 then reference_node cluster else None in
      for j = 0 to k - 1 do
        (* Spread arrivals uniformly within the tick. *)
        let offset = j * tick / max 1 k in
        submit_one ~ref_node ~at:now offset
      done;
      Engine.post engine ~delay:tick (fun () -> tick_loop ())
    end
  in
  tick_loop ()
