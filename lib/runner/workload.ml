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

(* A request the resubmission sweeper may re-send. *)
type pending = { req : Proto.Request.t; mutable resends : int }

let start ~cluster ~rate ?(num_clients = 2048) ?(resubmit = false) ?(shape = Steady)
    ?retry_budget ?(shape_seed = 1L) ?sweep_until ~until () =
  assert (rate > 0.0);
  (* Submission stops at [until]; the resubmission sweeper may need to keep
     chasing stalled requests through a post-fault grace period. *)
  let sweep_until = match sweep_until with Some t -> max t until | None -> until in
  let engine = Cluster.engine cluster in
  let config = Cluster.config cluster in
  let num_buckets = Core.Config.num_buckets config in
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
  (* Requests not yet out for over 5 s, in submission order. *)
  let outstanding : pending Queue.t = Queue.create () in
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
  let submit_one (epoch, bucket_leaders) ~submitted_at =
    match pick_open_client () with
    | None -> ()
    | Some c ->
        let client = client_base + c in
        let ts = next_ts.(c) in
        next_ts.(c) <- ts + 1;
        if hot then enroll c;
        let r =
          Proto.Request.make ~client ~ts ~signed:(Core.Config.client_signatures config)
            ~submitted_at ()
        in
        Cluster.note_submitted cluster r;
        if resubmit then Queue.push { req = r; resends = 0 } outstanding;
        let bucket = Proto.Request.bucket_of_id ~num_buckets r.Proto.Request.id in
        List.iter
          (fun dst -> Cluster.send_request cluster ~at:submitted_at ~dst r)
          (Core.Bucket_assignment.client_targets ~n:config.Core.Config.n ~epoch
             ~current:bucket_leaders.(bucket) bucket)
  in
  (* Only requests that have clearly stalled are re-sent (the paper's
     clients resubmit at epoch transitions; 5 s approximates an epoch under
     load).  [outstanding] is in submission order, so the requests that
     stalled since the last sweep are a prefix of it: each sweep moves that
     prefix to [stalled], then re-sends or gives up from [stalled] alone,
     still in submission order.  A request that ended young is dropped once
     it is old. *)
  let stalled : pending Queue.t = Queue.create () in
  let rec sweeper () =
    if Engine.now engine <= sweep_until then begin
      (match Cluster.routing_view cluster with
      | Some (_, bucket_leaders) ->
          let now = Engine.now engine in
          let stale p = Time_ns.diff now p.req.Proto.Request.submitted_at > Time_ns.sec 5 in
          while (not (Queue.is_empty outstanding)) && stale (Queue.peek outstanding) do
            Queue.push (Queue.take outstanding) stalled
          done;
          for _ = 1 to Queue.length stalled do
            let p = Queue.take stalled in
            if not (Cluster.request_terminal cluster p.req.Proto.Request.id) then
              match retry_budget with
              | Some budget when p.resends >= budget ->
                  (* Retry budget spent: the client abandons the request
                     instead of chasing it forever, and it leaves [stalled]
                     for good. *)
                  Cluster.note_gave_up cluster p.req
              | Some _ | None ->
                  p.resends <- p.resends + 1;
                  let bucket = Proto.Request.bucket_of_id ~num_buckets p.req.Proto.Request.id in
                  Cluster.send_request cluster ~at:now ~dst:bucket_leaders.(bucket) p.req;
                  Queue.push p stalled
          done
      | None -> ());
      Engine.post engine ~delay:(Time_ns.sec 2) sweeper
    end
  in
  if resubmit then Engine.post engine ~delay:(Time_ns.sec 2) sweeper;
  let rec tick_loop () =
    let now = Engine.now engine in
    if now <= until then begin
      acc := !acc +. tick_quota now;
      let k = int_of_float !acc in
      acc := !acc -. float_of_int k;
      (match if k > 0 then Cluster.routing_view cluster else None with
      | None -> ()
      | Some view ->
          for j = 0 to k - 1 do
            (* Spread arrivals uniformly within the tick. *)
            submit_one view ~submitted_at:(Time_ns.add now (j * tick / k))
          done);
      Engine.post engine ~delay:tick tick_loop
    end
  in
  tick_loop ()
