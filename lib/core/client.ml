module Time_ns = Sim.Time_ns

type pending = {
  request : Proto.Request.t;
  mutable repliers : Proto.Ids.node_id list;  (* distinct nodes that replied *)
  mutable retx : int;  (* retransmissions sent so far *)
  mutable not_before : Time_ns.t;  (* server-pushback retransmission floor *)
}

type t = {
  config : Config.t;
  id : Proto.Ids.client_id;
  clock : Orderer_intf.Clock.t;
  send : dst:int -> Proto.Message.t -> unit;
  retransmit : bool;
  retx_base : Time_ns.span;  (* first retransmission delay; doubles per try *)
  retx_max : Time_ns.span;  (* exponential-backoff ceiling *)
  jitter : float;  (* multiplicative backoff jitter amplitude, 0 = none *)
  retry_budget : int;  (* retransmissions before the client gives up *)
  on_give_up : Proto.Request.t -> unit;
  on_complete : Proto.Request.t -> latency:Time_ns.span -> unit;
  mutable next_ts : int;
  mutable floor : int;  (* lowest unconfirmed timestamp *)
  pending : (int, pending) Hashtbl.t;  (* ts -> *)
  mutable backlog : int;  (* requests wanted but blocked by the window *)
  mutable epoch : int;
  mutable bucket_leaders : Proto.Ids.node_id array option;
  bucket_update_votes : (int, (Proto.Ids.node_id, Proto.Ids.node_id array) Hashtbl.t) Hashtbl.t;
  rng : Sim.Rng.t;
  mutable open_loop_active : bool;
  mutable completed_count : int;
  mutable retx_count : int;
  mutable gave_up_count : int;
  mutable pushback_count : int;
}

let create ~config ~id ~clock ~send ?(retransmit = true) ?retx_base ?retx_max
    ?(jitter = 0.0) ?(retry_budget = max_int) ?(on_give_up = fun _ -> ())
    ?(on_complete = fun _ ~latency:_ -> ()) () =
  (* Defaults scale with the deployment's failure-detection timeout: a reply
     can legitimately take a batch timeout plus a WAN round trip, so the
     first retry waits a sizeable fraction of the epoch-change timeout. *)
  let retx_base =
    match retx_base with
    | Some s -> s
    | None -> max (Time_ns.sec 1) (config.Config.epoch_change_timeout / 4)
  in
  let retx_max =
    match retx_max with Some s -> s | None -> 2 * config.Config.epoch_change_timeout
  in
  {
    config;
    id;
    clock;
    send;
    retransmit;
    retx_base;
    retx_max;
    jitter;
    retry_budget = (if retry_budget < 0 then 0 else retry_budget);
    on_give_up;
    on_complete;
    next_ts = 0;
    floor = 0;
    pending = Hashtbl.create 64;
    backlog = 0;
    epoch = 0;
    bucket_leaders = None;
    bucket_update_votes = Hashtbl.create 4;
    rng = Sim.Rng.create ~seed:(Int64.of_int ((id * 2654435761) + 17));
    open_loop_active = false;
    completed_count = 0;
    retx_count = 0;
    gave_up_count = 0;
    pushback_count = 0;
  }

let in_flight t = Hashtbl.length t.pending

let completed t = t.completed_count

let retransmissions t = t.retx_count

let gave_up t = t.gave_up_count

let pushbacks_received t = t.pushback_count

(* §4.3 targets; until a bucket update arrives, the current leader is the initial owner. *)
let targets t (req : Proto.Request.t) =
  let bucket = Proto.Request.bucket_of_id ~num_buckets:(Config.num_buckets t.config) req.id in
  let current =
    match t.bucket_leaders with
    | Some leaders -> leaders.(bucket)
    | None -> Bucket_assignment.init_owner ~n:t.config.Config.n ~epoch:t.epoch bucket
  in
  Bucket_assignment.client_targets ~n:t.config.Config.n ~epoch:t.epoch ~current bucket

let send_request t (req : Proto.Request.t) =
  List.iter (fun dst -> t.send ~dst (Proto.Message.Request_msg req)) (targets t req)

let window_has_room t = t.next_ts - t.floor < Config.client_watermark_window

(* Deterministic multiplicative jitter: scale a backoff delay by a uniform
   factor in [1-jitter, 1+jitter], drawn from the client's own seeded RNG.
   Clients created with identical backoff parameters therefore still
   desynchronize instead of retransmitting in lockstep storms.  With
   [jitter = 0.0] no random number is drawn at all — exact legacy timing. *)
let jittered t delay =
  if t.jitter <= 0.0 then delay
  else
    let f = 1.0 +. (t.jitter *. ((2.0 *. Sim.Rng.float t.rng 1.0) -. 1.0)) in
    Time_ns.of_sec_f (Time_ns.to_sec_f delay *. f)

(* Retransmission with jittered exponential backoff: while a request lacks
   its reply quorum, re-send it after ~[retx_base], then 2x, 4x, ... capped
   at [retx_max] (the jitter factor may overshoot the cap by its amplitude).
   The first retries go to the usual leader-detection targets (the request
   or a reply may simply have been dropped); after that the client stops
   guessing and blankets all nodes — whatever correct node currently leads
   the bucket is among them, which restores liveness even when every guessed
   target crashed.  Nodes deduplicate, so the only cost of a spurious
   retransmission is bandwidth.

   Two flow-control refinements: a [Busy] pushback raises the pending
   request's [not_before] floor, and a timer that fires early re-arms for
   the floor without consuming retry budget; once [retry_budget]
   retransmissions are spent, the client gives up the request — removing it
   from the window so later requests are not wedged behind it — and reports
   it via [on_give_up]. *)
let rec arm_retx t ts ~delay =
  t.clock.post ~delay (fun () ->
      match Hashtbl.find_opt t.pending ts with
      | None -> ()  (* confirmed while the timer was pending *)
      | Some p ->
          let now = t.clock.now () in
          if now < p.not_before then
            (* Pushed back: honor the server-suggested floor; no send,
               no budget spent. *)
            arm_retx t ts ~delay:(Time_ns.diff p.not_before now)
          else if p.retx >= t.retry_budget then begin
            Hashtbl.remove t.pending ts;
            t.gave_up_count <- t.gave_up_count + 1;
            t.on_give_up p.request;
            advance_floor t
          end
          else begin
            p.retx <- p.retx + 1;
            t.retx_count <- t.retx_count + 1;
            if p.retx >= 3 then
              for dst = 0 to t.config.Config.n - 1 do
                t.send ~dst (Proto.Message.Request_msg p.request)
              done
            else send_request t p.request;
            arm_retx t ts ~delay:(jittered t (min (2 * delay) t.retx_max))
          end)

and submit_now t =
  let ts = t.next_ts in
  t.next_ts <- ts + 1;
  let req =
    Proto.Request.make ~client:t.id ~ts ~signed:(Config.client_signatures t.config)
      ~submitted_at:(t.clock.now ()) ()
  in
  Hashtbl.replace t.pending ts
    { request = req; repliers = []; retx = 0; not_before = Time_ns.zero };
  send_request t req;
  if t.retransmit then arm_retx t ts ~delay:(jittered t t.retx_base)

and drain_backlog t =
  while t.backlog > 0 && window_has_room t do
    t.backlog <- t.backlog - 1;
    submit_now t
  done

and advance_floor t =
  while t.floor < t.next_ts && not (Hashtbl.mem t.pending t.floor) do
    t.floor <- t.floor + 1
  done;
  drain_backlog t

let submit_next t =
  if window_has_room t then submit_now t else t.backlog <- t.backlog + 1

let handle_reply t ~src ~ts =
  match Hashtbl.find_opt t.pending ts with
  | None -> ()
  | Some p ->
      if not (List.mem src p.repliers) then begin
        p.repliers <- src :: p.repliers;
        if List.length p.repliers >= Config.reply_quorum t.config then begin
          Hashtbl.remove t.pending ts;
          t.completed_count <- t.completed_count + 1;
          let latency =
            Time_ns.diff (t.clock.now ()) p.request.Proto.Request.submitted_at
          in
          t.on_complete p.request ~latency;
          advance_floor t
        end
      end

(* Bucket updates are accepted once a quorum of nodes report the same
   assignment for an epoch (§4.3). *)
let handle_bucket_update t ~src ~epoch ~bucket_leaders =
  if epoch >= t.epoch then begin
    let votes =
      match Hashtbl.find_opt t.bucket_update_votes epoch with
      | Some v -> v
      | None ->
          let v = Hashtbl.create 8 in
          Hashtbl.replace t.bucket_update_votes epoch v;
          v
    in
    Hashtbl.replace votes src bucket_leaders;
    let matching =
      Hashtbl.fold (fun _ bl acc -> if bl = bucket_leaders then acc + 1 else acc) votes 0
    in
    if matching >= Config.reply_quorum t.config && (epoch > t.epoch || t.bucket_leaders = None)
    then begin
      t.epoch <- epoch;
      t.bucket_leaders <- Some bucket_leaders;
      Hashtbl.remove t.bucket_update_votes epoch;
      (* Epoch transition: resubmit everything still unconfirmed (§4.3). *)
      Hashtbl.iter (fun _ p -> send_request t p.request) t.pending
    end
  end

let on_message t ~src msg =
  match msg with
  | Proto.Message.Reply { req_id; _ } ->
      if req_id.Proto.Request.client = t.id then handle_reply t ~src ~ts:req_id.Proto.Request.ts
  | Proto.Message.Busy { req_id; retry_after; shed = _ } ->
      if req_id.Proto.Request.client = t.id then begin
        match Hashtbl.find_opt t.pending req_id.Proto.Request.ts with
        | None -> ()
        | Some p ->
            t.pushback_count <- t.pushback_count + 1;
            let floor = Time_ns.add (t.clock.now ()) retry_after in
            if floor > p.not_before then p.not_before <- floor
      end
  | Proto.Message.Bucket_update { epoch; bucket_leaders } ->
      handle_bucket_update t ~src ~epoch ~bucket_leaders
  | _ -> ()

let start_open_loop t ~rate ~until =
  assert (rate > 0.0);
  if not t.open_loop_active then begin
    t.open_loop_active <- true;
    let rec arm () =
      let gap = Sim.Rng.exponential t.rng ~mean:(1.0 /. rate) in
      t.clock.post ~delay:(Time_ns.of_sec_f gap) (fun () ->
          if t.clock.now () <= until then begin
            submit_next t;
            arm ()
          end
          else t.open_loop_active <- false)
    in
    arm ()
  end
