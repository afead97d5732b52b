module Time_ns = Sim.Time_ns
module Timer = Orderer_intf.Timer

type orderer_factory = Orderer_intf.ctx -> Segment.t -> Orderer_intf.instance

type batcher = {
  b_seg : Segment.t;
  b_interval : Time_ns.span;  (* rate-limit spacing between cuts (§4.4.1) *)
  waiting : (int * (Proto.Proposal.t -> unit)) Queue.t;
  cut_batches : Proto.Batch.t array;
      (* by segment index: the batch last cut for that sn, kept so a ⊥
         commit there can return its requests to the queues *)
  mutable last_cut : Time_ns.t;
  timer : Timer.t;
  mutable wake_at : Time_ns.t;
      (* when [timer] fires, else [max_int]; avoids re-arm churn.  A dropped
         batcher keeps it, so a late poke re-arms only an earlier wake. *)
}

type epoch_state = {
  e_num : int;
  e_start : int;
  e_len : int;
  e_leaders : Proto.Ids.node_id array;
  e_bucket_leaders : Proto.Ids.node_id array;
  e_batcher : batcher option;
      (* the segment this node leads, if any: an epoch's leaders are
         distinct, so a node leads at most one segment per epoch *)
  mutable e_remaining : int;  (* uncommitted sequence numbers of this epoch *)
}

type t = {
  config : Config.t;
  id : Proto.Ids.node_id;
  clock : Orderer_intf.Clock.t;  (* shared with this node's orderers *)
  raw_send : dst:int -> Proto.Message.t -> unit;
  orderer_factory : orderer_factory;
  hooks : hooks;
  tracer : Obs.Tracer.t option;  (* request-lifecycle probe; None = zero cost *)
  keypair : Iss_crypto.Signature.keypair;
  threshold_group : Iss_crypto.Threshold.group;
  log : Log.t;
  queues : Bucket_queue.t;
  watermarks : Watermarks.t;  (* windows, deliveries and this epoch's proposals *)
  policy : Leader_policy.t;
  mutable epoch : epoch_state;
  orderers : (int, Orderer_intf.instance) Hashtbl.t;  (* instance id -> *)
  future_buffer : (int, (int * Proto.Message.t) list ref) Hashtbl.t;
  mutable cpu_free : Time_ns.t;
  mutable req_cum : int;
      (* requests delivered through the end of the last finished epoch —
         finish_epoch maintains it (Eq. (2) cumulative count for checkpoint
         certificates); a checkpoint jump overwrites it wholesale *)
  mutable locally_delivered : int;
      (* requests this node itself delivered — unlike Log.total_delivered it
         does not jump over state-transferred history, so it is the honest
         reading for the node.delivered metric *)
  mutable auth_failures : int;
      (* messages dropped at ingress because their authenticator failed —
         the Byzantine Corrupt_sig attack surfaces here *)
  mutable shed_count : int;
      (* requests dropped by bounded admission (reject-new refusals plus
         drop-oldest evictions) *)
  mutable pushback_count : int;
      (* Busy pushback notifications issued, advisory and shedding alike *)
  mutable halted : bool;
  mutable straggler : bool;
  mutable st_target : int;  (* rotating state-transfer target *)
  lag_timer : Timer.t;  (* the lag check, re-armed on entering an epoch and on recovery *)
  mutable self_handler : src:int -> Proto.Message.t -> unit;  (* loopback knot *)
}

and hooks = {
  on_batch_deliver : t -> sn:int -> first_request_sn:int -> Proto.Batch.t -> unit;
  on_deliver : (t -> Log.delivery -> unit) option;
  on_duplicate : (t -> Proto.Request.t -> unit) option;
  on_epoch_start :
    t ->
    epoch:int ->
    leaders:Proto.Ids.node_id array ->
    bucket_leaders:Proto.Ids.node_id array ->
    unit;
  epoch_gate : (t -> epoch:int -> (unit -> unit) -> unit) option;
  on_pushback : (t -> Proto.Request.t -> retry_after:Time_ns.span -> shed:bool -> unit) option;
      (* Fired whenever the node would send a Busy pushback for a request:
         [shed = true] means the request was dropped (refused at admission,
         or evicted by drop-oldest), [shed = false] is the advisory
         watermark warning.  The cluster harness only reports sheds to its
         invariant checker. *)
}

let default_hooks =
  {
    on_batch_deliver = (fun _ ~sn:_ ~first_request_sn:_ _ -> ());
    on_deliver = None;
    on_duplicate = None;
    on_epoch_start = (fun _ ~epoch:_ ~leaders:_ ~bucket_leaders:_ -> ());
    epoch_gate = None;
    on_pushback = None;
  }

(* ------------------------------------------------------------------ *)
(* Accessors *)

let id t = t.id
let config t = t.config
let current_epoch t = t.epoch.e_num
let log t = t.log
let is_halted t = t.halted
let delivered_count t = t.locally_delivered
let auth_failures t = t.auth_failures
let shed_count t = t.shed_count
let pushback_count t = t.pushback_count
let epoch_leaders t = t.epoch.e_leaders
let bucket_leader t ~bucket = t.epoch.e_bucket_leaders.(bucket)
let set_straggler t b = t.straggler <- b

let pending_requests t = Bucket_queue.pending t.queues

let active_instances t = Hashtbl.length t.orderers

let bucket_queue_added t = Bucket_queue.total_added t.queues
let bucket_queue_max_occupancy t = Bucket_queue.max_occupancy t.queues

let checkpoint_lag t =
  (* A caught-up node in epoch e has certificates through e-1: lag 0. *)
  Stdlib.max 0 (t.epoch.e_num - 1 - Log.newest_stable t.log)

(* ------------------------------------------------------------------ *)
(* Lifecycle tracing (DESIGN.md §8).

   Every site is guarded by [t.tracer]; an uninstrumented run pays one
   pointer comparison per site and allocates nothing.  SB-broadcast is
   detected on the wire — the first send of a message carrying the batch's
   proposal — so the cut -> broadcast gap reflects real leader-side work
   (CPU charges, batcher scheduling) for every ordering protocol without
   instrumenting the orderers themselves. *)

let trace_event t phase (r : Proto.Request.t) =
  match t.tracer with
  | None -> ()
  | Some tr -> Obs.Tracer.event tr ~req:(Proto.Request.id_key r.id) ~node:t.id phase

let trace_batch t phase batch =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Proto.Batch.iter
        (fun (r : Proto.Request.t) ->
          Obs.Tracer.event tr ~req:(Proto.Request.id_key r.id) ~node:t.id phase)
        batch

let trace_batch_once tr ~node phase batch =
  Proto.Batch.iter
    (fun (r : Proto.Request.t) ->
      Obs.Tracer.event_once tr ~req:(Proto.Request.id_key r.id) ~node phase)
    batch

let trace_proposal_send t msg =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Proto.Message.iter_proposed_batches
        (trace_batch_once tr ~node:t.id Obs.Tracer.Sb_broadcast)
        msg

(* ------------------------------------------------------------------ *)
(* Plumbing *)

let send t ~dst msg =
  trace_proposal_send t msg;
  if dst = t.id then
    (* Loopback: bypass the NIC, keep a small scheduling delay so local
       delivery stays asynchronous (as a channel to self would be). *)
    t.clock.post ~delay:(Time_ns.us 10) (fun () ->
        if not t.halted then t.self_handler ~src:t.id msg)
  else t.raw_send ~dst msg

let broadcast t msg =
  for dst = 0 to t.config.Config.n - 1 do
    send t ~dst msg
  done

(* Effective cores for crypto work: the paper's nodes shard signature
   verification over 32 VCPUs. *)
let cpu_parallelism = 32

let charge_cpu t cost k =
  let effective = cost / cpu_parallelism in
  let start = max (t.clock.now ()) t.cpu_free in
  let done_at = Time_ns.add start effective in
  t.cpu_free <- done_at;
  t.clock.post_at ~at:done_at (fun () -> if not t.halted then k ())

(* Horizon-only variant for fire-and-forget CPU accounting (no event). *)
let charge_cpu_sync t cost =
  let effective = cost / cpu_parallelism in
  t.cpu_free <- Time_ns.add (max (t.clock.now ()) t.cpu_free) effective

let epoch_of_instance t instance = instance / t.config.Config.n

(* ------------------------------------------------------------------ *)
(* Request intake (§3.7) *)

(* Admission pushback: count it, notify the harness hook.  The wire-level
   Busy reply is sent by whoever wired the node to real clients (the node
   itself has no channel back to the modeled workload). *)
let note_pushback t (r : Proto.Request.t) ~retry_after ~shed =
  if shed then t.shed_count <- t.shed_count + 1;
  t.pushback_count <- t.pushback_count + 1;
  match t.hooks.on_pushback with Some f -> f t r ~retry_after ~shed | None -> ()

(* Base server-suggested backoff carried in [Busy] replies: scaled up with
   bucket occupancy, doubled when the request was actually shed. *)
let pushback_hint = Time_ns.ms 500

(* Occupancy fraction of a bounded bucket at which the node starts sending
   advisory [Busy] pushback, before it actually sheds. *)
let pushback_watermark = 0.75

(* Admission control.  Returns whether [r] may be added to its [bucket];
   under [Bounded] admission, sheds — the incoming request (Reject_new) or
   the oldest queued one (Drop_oldest) — when the bucket is at capacity.  A
   request already queued is always "admitted": Bucket_queue.add is a no-op
   for it, and shedding a retransmission's victim would punish an unrelated
   request. *)
let admit_request t ~bucket (r : Proto.Request.t) =
  match t.config.Config.admission with
  | Config.Unbounded -> true
  | Config.Bounded { capacity; shed } -> (
      Bucket_queue.length t.queues ~bucket < capacity
      || Bucket_queue.queued t.queues r.Proto.Request.id
      ||
      let shed_hint = 2 * pushback_hint in
      match shed with
      | Config.Reject_new ->
          note_pushback t r ~retry_after:shed_hint ~shed:true;
          false
      | Config.Drop_oldest ->
          Array.iter
            (fun victim -> note_pushback t victim ~retry_after:shed_hint ~shed:true)
            (Bucket_queue.cut t.queues ~buckets:[ bucket ] ~max:1);
          true)

let disarm (b : batcher) =
  Timer.cancel b.timer;
  b.wake_at <- max_int

let rec submit t (r : Proto.Request.t) =
  if not t.halted then
    match Watermarks.status t.watermarks r.id with
    | Watermarks.Delivered -> (
        (* A retransmission of a request this node already delivered: §4.3
           has the replica answer it from its reply cache, or the client
           could starve when every original reply was lost in transit. *)
        match t.hooks.on_duplicate with Some f -> f t r | None -> ())
    | Watermarks.Outside_window -> ()
    | Watermarks.Proposed ->
        (* Already accepted into an in-flight proposal this epoch: a
           retransmission re-entering the queues while the original sits in
           an undecided batch would make this node cut it into a second
           batch, which honest followers must then reject wholesale. *)
        ()
    | Watermarks.Fresh ->
        let bucket = Proto.Request.bucket_of_id ~num_buckets:(Config.num_buckets t.config) r.id in
        if
          ((not (Config.client_signatures t.config)) || Proto.Request.signature_valid r)
          && admit_request t ~bucket r
          && Bucket_queue.add t.queues r
        then begin
          trace_event t Obs.Tracer.Enqueue r;
          if Config.client_signatures t.config then
            charge_cpu_sync t Iss_crypto.Signature.verify_cost_ns;
          (match t.config.Config.admission with
          | Config.Unbounded -> ()
          | Config.Bounded { capacity; _ } ->
              (* Watermark backpressure: warn the client before shedding
                 starts, with a hint that grows as the bucket fills. *)
              let occ = Bucket_queue.length t.queues ~bucket in
              if float_of_int occ >= pushback_watermark *. float_of_int capacity then
                note_pushback t r ~retry_after:(max 1 (pushback_hint * occ / capacity)) ~shed:false);
          poke_batcher t ~bucket
        end

(* ------------------------------------------------------------------ *)
(* Batching: the propose() logic of Algorithm 2 plus the paper's
   rate-limiting (§4.4.1) and the straggler behaviour of §6.4.2. *)

(* Wake this node's batcher when [bucket] is one of its segment's.  The
   option comes first: before [start] the bucket map is empty. *)
and poke_batcher t ~bucket =
  match t.epoch.e_batcher with
  | Some b when t.epoch.e_bucket_leaders.(bucket) = t.id -> try_cut t b
  | Some _ | None -> ()

and segment_pending t (seg : Segment.t) =
  List.fold_left
    (fun acc bucket -> acc + Bucket_queue.length t.queues ~bucket)
    0 seg.Segment.buckets

and try_cut t (b : batcher) =
  if (not t.halted) && not (Queue.is_empty b.waiting) then begin
    let now = t.clock.now () in
    let interval =
      if t.straggler then t.config.Config.epoch_change_timeout / 2 else b.b_interval
    in
    let ready_at = Time_ns.add b.last_cut interval in
    let pending = if t.straggler then 0 else segment_pending t b.b_seg in
    let full = pending >= t.config.Config.max_batch_size in
    let mbt = t.config.Config.max_batch_timeout in
    let deadline = Time_ns.add b.last_cut (max interval mbt) in
    (* pending = 0: nothing worth proposing; an empty keep-alive batch goes
       out only every [keepalive] (PBFT primary behaviour, §4.2.1), except
       under a zero batch timeout (HotStuff) where the pipeline must keep
       moving. *)
    let keepalive = max interval (t.config.Config.epoch_change_timeout / 2) in
    let cut_now =
      now >= ready_at
      &&
      if t.straggler then true
      else if pending = 0 then mbt = 0 || now >= Time_ns.add b.last_cut keepalive
      else mbt = 0 || full || now >= deadline
    in
    if cut_now then begin
      let sn, callback = Queue.pop b.waiting in
      let batch =
        if t.straggler then Proto.Batch.empty
        else
          (* cutBatch of Algorithm 2: the segment's oldest requests. *)
          Proto.Batch.make
            (Bucket_queue.cut t.queues ~buckets:b.b_seg.Segment.buckets
               ~max:t.config.Config.max_batch_size)
      in
      (match t.tracer with
      | Some tr -> trace_batch_once tr ~node:t.id Obs.Tracer.Cut batch
      | None -> ());
      b.last_cut <- now;
      b.cut_batches.(Segment.sn_index b.b_seg sn) <- batch;
      Proto.Batch.iter
        (fun r -> Watermarks.note_proposed t.watermarks r.Proto.Request.id ~sn)
        batch;
      disarm b;
      callback (Proto.Proposal.Batch batch);
      try_cut t b
    end
    else begin
      let wake =
        if now < ready_at then ready_at
        else if pending = 0 && mbt > 0 then Time_ns.add b.last_cut keepalive
        else deadline
      in
      (* Re-arm only when the required wake precedes the armed one (e.g. the
         batch just became full); otherwise the pending timer re-evaluates
         anyway.  This keeps arrival-driven pokes allocation-free. *)
      if wake < b.wake_at then begin
        b.wake_at <- wake;
        Timer.arm b.timer ~delay:(Time_ns.diff wake now) (fun () ->
            b.wake_at <- max_int;
            try_cut t b)
      end
    end
  end

let request_batch t (b : batcher) ~sn callback =
  Queue.push (sn, callback) b.waiting;
  try_cut t b

let cancel_batcher t = Option.iter (fun b -> Timer.cancel b.timer) t.epoch.e_batcher

(* ------------------------------------------------------------------ *)
(* Proposal validation — the follower-side checks of §4.2 (common design
   principle 3). *)

let validate_proposal t (seg : Segment.t) ~sn proposal =
  match proposal with
  | Proto.Proposal.Nil -> Orderer_intf.Accept
  | Proto.Proposal.Batch batch ->
      let num_buckets = Config.num_buckets t.config in
      let reqs = Proto.Batch.requests batch in
      (* The first failing request decides the verdict.  Failures split into
         two classes: a bad request signature or an out-of-bucket request is
         {e provable} misbehaviour (an honest leader cannot cut either), so
         the verdict is [Reject_malicious]; duplicate/stale/overflowing
         requests could come from an honest-but-lagging leader, so they stay
         a plain [Reject]. *)
      let rec check i =
        if i = Array.length reqs then Orderer_intf.Accept
        else begin
          let r = reqs.(i) in
          if
            (* (a) request validity: a forged client signature proves the
               leader fabricated or tampered with the request. *)
            (Config.client_signatures t.config && not (Proto.Request.signature_valid r))
            (* (c) maps to one of the segment's buckets: §4.2 principle 3 —
               a request outside the segment's buckets can only appear if
               the leader ignored the epoch's bucket assignment. *)
            || not (Segment.owns_bucket seg (Proto.Request.bucket_of_id ~num_buckets r.id))
          then Orderer_intf.Reject_malicious
          else if
            (* not proposed at another sn this epoch; inside the client's
               watermark window and (b) not committed in an earlier epoch *)
            match Watermarks.status t.watermarks r.id with
            | Watermarks.Fresh -> false
            | Watermarks.Proposed -> Watermarks.proposed_at t.watermarks r.id <> sn
            | Watermarks.Delivered | Watermarks.Outside_window -> true
          then Orderer_intf.Reject
          else check (i + 1)
        end
      in
      (* Record only an accepted batch, so a rejection leaves no trace. *)
      let verdict = check 0 in
      if verdict = Orderer_intf.Accept then
        Array.iter
          (fun (r : Proto.Request.t) -> Watermarks.note_proposed t.watermarks r.id ~sn)
          reqs;
      verdict

(* ------------------------------------------------------------------ *)
(* Commit path: SB-DELIVER -> log -> delivery -> epoch advancement *)

let resurrect t (batch : Proto.Batch.t) =
  Proto.Batch.iter
    (fun (r : Proto.Request.t) ->
      if not (Watermarks.delivered t.watermarks r.id) then begin
        let bucket = Proto.Request.bucket_of_id ~num_buckets:(Config.num_buckets t.config) r.id in
        (* Resurrection goes through the same admission gate as submit, so
           bounded occupancy stays a structural invariant even when an
           aborted batch returns while the bucket has refilled. *)
        if admit_request t ~bucket r then begin
          Bucket_queue.resurrect t.queues r;
          poke_batcher t ~bucket
        end
      end)
    batch

let rec process_commit t ~sn proposal ~resurrectable =
  if Log.commit t.log ~sn proposal then begin
    (match proposal with
    | Proto.Proposal.Batch batch ->
        trace_batch t Obs.Tracer.Commit batch;
        Proto.Batch.iter
          (fun (r : Proto.Request.t) ->
            (* From here on the watermarks refuse the request and forget
               its proposal, so the queues need only hold undecided ones. *)
            Watermarks.note_delivered t.watermarks r.id;
            Bucket_queue.commit t.queues r.id)
          batch
    | Proto.Proposal.Nil -> (
        (* If I proposed a batch for this position and ⊥ was delivered
           instead, return the requests to their queues (Algorithm 1
           line 47).  Only a current-epoch sn can get here: an epoch
           starts once every earlier sn is committed or jumped over, and
           [Log.commit] refuses those. *)
        match t.epoch.e_batcher with
        | Some b when resurrectable ->
            let k = Segment.sn_index b.b_seg sn in
            if k >= 0 then resurrect t b.cut_batches.(k)
        | Some _ | None -> ()));
    (* Deliver the contiguous prefix. *)
    t.locally_delivered <-
      t.locally_delivered
      + Log.deliver_ready t.log ~on_batch:(fun ~sn ~first_request_sn batch ->
           trace_batch t Obs.Tracer.Deliver batch;
           t.hooks.on_batch_deliver t ~sn ~first_request_sn batch;
           match t.hooks.on_deliver with
           | Some f ->
               let reqs = Proto.Batch.requests batch in
               Array.iteri
                 (fun k request ->
                   f t { Log.request; request_sn = first_request_sn + k; batch_sn = sn })
                 reqs
           | None -> ());
    (* Epoch bookkeeping. *)
    let e = t.epoch in
    if sn >= e.e_start && sn < e.e_start + e.e_len then begin
      e.e_remaining <- e.e_remaining - 1;
      if e.e_remaining = 0 then finish_epoch t
    end
  end

(* ------------------------------------------------------------------ *)
(* Epoch lifecycle (Algorithm 1 lines 50-52, Algorithm 3) *)

and finish_epoch t =
  let e = t.epoch in
  let num_leaders = Array.length e.e_leaders in
  (* One pass over the epoch's log entries, identical at every node: the
     failure evidence (⊥ entries, attributed to their segment leaders) and
     per-leader segment statistics for the STRAGGLER-AWARE policy. *)
  let failed = ref [] in
  let batches = Array.make num_leaders 0 in
  let empties = Array.make num_leaders 0 in
  let requests = Array.make num_leaders 0 in
  for sn = e.e_start to e.e_start + e.e_len - 1 do
    let k = (sn - e.e_start) mod num_leaders in
    match Log.get t.log ~sn with
    | Some (Proto.Proposal.Batch b) ->
        batches.(k) <- batches.(k) + 1;
        let len = Proto.Batch.length b in
        if len = 0 then empties.(k) <- empties.(k) + 1;
        requests.(k) <- requests.(k) + len
    | Some Proto.Proposal.Nil -> failed := (e.e_leaders.(k), sn) :: !failed
    | None -> ()
  done;
  let stats =
    List.init num_leaders (fun k ->
        {
          Leader_policy.ls_leader = e.e_leaders.(k);
          ls_batches = batches.(k);
          ls_empty = empties.(k);
          ls_requests = requests.(k);
        })
  in
  Leader_policy.epoch_finished t.policy ~epoch:e.e_num ~failed:(List.rev !failed) ~stats ();
  (* Eq. (2) cumulative request count through this epoch's end: the epoch's
     own total is the per-leader sum just computed.  (Log.total_delivered
     can already include later epochs' requests when state transfer
     committed ahead, so it is not usable here.) *)
  t.req_cum <- t.req_cum + Array.fold_left ( + ) 0 requests;
  (* Checkpoint (§3.5) over the epoch's range, the request count and the
     leader-policy state, all deterministic from the log: a lagging node
     can adopt them wholesale (checkpoint jump).  The policy snapshot
     precedes the leaderless-epoch skip, so a restoring node replays it. *)
  let vote =
    Log.checkpoint_vote t.log ~keypair:t.keypair ~signer:t.id ~epoch:e.e_num ~from_sn:e.e_start
      ~to_sn:(e.e_start + e.e_len - 1) ~req_count:t.req_cum
      ~policy:(Leader_policy.snapshot t.policy)
  in
  charge_cpu t Iss_crypto.Signature.sign_cost_ns (fun () -> ());
  broadcast t vote;
  advance_epoch t ~finished:e.e_num ~start_sn:(e.e_start + e.e_len)

and advance_epoch t ~finished ~start_sn =
  (* Find the next epoch with a non-empty leader set (BACKOFF can produce
     leaderless epochs; the paper skips them), then enter it.  Also the
     re-entry point after a checkpoint jump. *)
  let next = ref (finished + 1) in
  let leaders = ref (Leader_policy.leaders t.policy ~epoch:!next) in
  let guard = ref 0 in
  while Array.length !leaders = 0 do
    incr guard;
    if !guard > 100_000 then failwith "Node: leader policy yields no leaders indefinitely";
    Leader_policy.epoch_finished t.policy ~epoch:!next ~failed:[] ();
    incr next;
    leaders := Leader_policy.leaders t.policy ~epoch:!next
  done;
  let next = !next and leaders = !leaders in
  let proceed () = start_epoch t ~epoch:next ~start_sn ~leaders in
  match t.hooks.epoch_gate with
  | Some gate -> gate t ~epoch:next proceed
  | None -> proceed ()

and start_epoch t ~epoch ~start_sn ~leaders =
  if not t.halted then begin
    let segments = Segment.make_epoch ~config:t.config ~epoch ~start_sn ~leaders in
    let len = Config.epoch_length t.config ~leaders:(Array.length leaders) in
    let bucket_leaders = (List.hd segments).Segment.bucket_leaders in
    Log.set_range t.log ~epoch ~first_sn:start_sn ~length:len;
    Watermarks.clear_proposals t.watermarks;
    (* Some positions may already be committed (state transfer outran the
       epoch machinery); count only the genuinely open ones. *)
    let remaining = ref 0 in
    for sn = start_sn to start_sn + len - 1 do
      if not (Log.is_committed t.log ~sn) then incr remaining
    done;
    (* Tear down the previous epoch's batcher; set one up for my segment. *)
    cancel_batcher t;
    let interval =
      match t.config.Config.batch_rate with
      | Some rate ->
          max t.config.Config.min_batch_timeout
            (Time_ns.of_sec_f (float_of_int (Array.length leaders) /. rate))
      | None -> t.config.Config.min_batch_timeout
    in
    let batcher =
      List.find_opt (fun (seg : Segment.t) -> seg.Segment.leader = t.id) segments
      |> Option.map (fun seg ->
             {
               b_seg = seg;
               b_interval = interval;
               waiting = Queue.create ();
               cut_batches = Array.make (Segment.seq_count seg) Proto.Batch.empty;
               last_cut = t.clock.now ();
               timer = t.clock.timer ();
               wake_at = max_int;
             })
    in
    t.epoch <-
      {
        e_num = epoch;
        e_start = start_sn;
        e_len = len;
        e_leaders = leaders;
        e_bucket_leaders = bucket_leaders;
        e_batcher = batcher;
        e_remaining = !remaining;
      };
    (* Instantiate one SB orderer per segment. *)
    List.iter
      (fun (seg : Segment.t) ->
        let ctx = make_ctx t seg in
        let instance = t.orderer_factory ctx seg in
        Hashtbl.replace t.orderers seg.Segment.instance instance;
        instance.Orderer_intf.start ())
      segments;
    t.hooks.on_epoch_start t ~epoch ~leaders ~bucket_leaders;
    if t.epoch.e_remaining = 0 then finish_epoch t;
    (* GC instances of epochs whose checkpoint stabilized while we were
       still catching up. *)
    gc_stable t;
    (* Replay messages that arrived before we entered this epoch. *)
    (match Hashtbl.find_opt t.future_buffer epoch with
    | Some msgs ->
        let replay = List.rev !msgs in
        Hashtbl.remove t.future_buffer epoch;
        List.iter (fun (src, msg) -> handle_message t ~src msg) replay
    | None -> ());
    arm_lag_check t
  end

and make_ctx t (seg : Segment.t) : Orderer_intf.ctx =
  let batcher = if seg.Segment.leader = t.id then t.epoch.e_batcher else None in
  {
    Orderer_intf.node = t.id;
    config = t.config;
    clock = t.clock;
    send = (fun ~dst msg -> send t ~dst msg);
    broadcast = (fun msg -> broadcast t msg);
    announce = (fun ~sn proposal -> process_commit t ~sn proposal ~resurrectable:true);
    request_batch =
      (fun ~sn callback ->
        match batcher with
        | Some b -> request_batch t b ~sn callback
        | None -> invalid_arg "Orderer requested a batch on a non-leader node");
    charge_cpu = (fun cost k -> charge_cpu t cost k);
    keypair = t.keypair;
    threshold_group = t.threshold_group;
    validate_proposal = (fun seg ~sn proposal -> validate_proposal t seg ~sn proposal);
  }

(* ------------------------------------------------------------------ *)
(* Checkpoints and state transfer (§3.5): Log decides, the node acts. *)

and gc_stable t =
  (* Garbage-collect orderer instances of epochs that are both behind us and
     covered by a stable checkpoint, then prune the log behind them. *)
  let current = t.epoch.e_num in
  let to_remove = ref [] in
  Hashtbl.iter
    (fun instance _ ->
      let e = epoch_of_instance t instance in
      if e < current && Log.is_stable t.log ~epoch:e then to_remove := instance :: !to_remove)
    t.orderers;
  List.iter
    (fun instance ->
      (match Hashtbl.find_opt t.orderers instance with
      | Some inst -> inst.Orderer_intf.stop ()
      | None -> ());
      Hashtbl.remove t.orderers instance)
    !to_remove;
  Log.prune_stable t.log ~below_sn:t.epoch.e_start

and arm_lag_check t =
  Timer.arm t.lag_timer ~delay:(2 * t.config.Config.epoch_change_timeout) (fun () ->
      if not t.halted then begin
        (* Still in the same epoch after two epoch-change timeouts; if
           the rest of the system has moved on — evidenced by a stable
           checkpoint for our epoch or any later one (nodes rebroadcast
           nothing for long-finished epochs, so a laggard typically only
           collects certificates of newer epochs) — fetch the log
           instead of waiting. *)
        (match Log.last_stable_checkpoint t.log with
        | Some cert when cert.cc_epoch >= t.epoch.e_num ->
            (* Rotate over the certificate's other signers. *)
            let peers = Array.of_list (List.filter (fun s -> s <> t.id) (Log.signers cert)) in
            let target =
              if Array.length peers = 0 then (t.id + 1) mod t.config.Config.n
              else begin
                t.st_target <- t.st_target + 1;
                peers.(t.st_target mod Array.length peers)
              end
            in
            send t ~dst:target (Proto.Message.State_request { from_sn = t.epoch.e_start })
        | Some _ | None -> ());
        arm_lag_check t
      end)

and jump_to_checkpoint t (cert : Proto.Message.checkpoint_cert) =
  (* Log already jumped its frontier to the quorum-signed checkpoint: the
     serving peer, and transitively everyone, pruned the history behind it.
     Fast-forward what the skipped epochs would have produced — Eq. (2)
     request count and leader-policy state, both signed — and re-enter the
     epoch machinery right after the checkpoint.

     Per-client watermark floors cannot be reconstructed, so the node keeps
     its old ones.  A client whose skipped requests it never delivers keeps
     a floor below them, and the node refuses that client's requests past
     [floor + window] as [Outside_window]: a stricter validator and intake
     for the client, never a source of double delivery.

     Everything buffered refers to skipped history: in-flight proposals and
     the orderer instances of abandoned epochs (all from epochs <= the
     certificate's).  Queued requests may include ones delivered in the
     skipped range; clients retransmit what reached no reply quorum, so
     dropping the queues loses nothing. *)
  t.req_cum <- cert.cc_req_count;
  Leader_policy.restore t.policy cert.cc_policy;
  Hashtbl.iter (fun _ inst -> inst.Orderer_intf.stop ()) t.orderers;
  Hashtbl.reset t.orderers;
  Watermarks.clear_proposals t.watermarks;
  Bucket_queue.clear t.queues;
  cancel_batcher t;
  advance_epoch t ~finished:cert.cc_epoch ~start_sn:(cert.cc_max_sn + 1)

(* ------------------------------------------------------------------ *)
(* Message dispatch *)

and handle_message t ~src msg =
  if not t.halted then begin
    match msg with
    | Proto.Message.Request_msg r -> submit t r
    | Proto.Message.Checkpoint_msg { epoch; max_sn; root; req_count; policy; signer; sig_ } ->
        let quorum = Log.quorum t.config in
        if Log.add_vote t.log ~quorum ~epoch ~max_sn ~root ~req_count ~policy ~signer ~sig_ then
          gc_stable t
    | Proto.Message.State_request { from_sn } ->
        List.iter (send t ~dst:src) (Log.state_replies t.log ~from_sn)
    | Proto.Message.State_reply { entries; cert } -> (
        match Log.check_state_reply t.log ~quorum:(Log.quorum t.config) ~entries ~cert with
        | Log.Verified sorted ->
            List.iter (fun (sn, p) -> process_commit t ~sn p ~resurrectable:false) sorted
        | Log.Jumped -> jump_to_checkpoint t cert
        | Log.Refused -> ())
    | Proto.Message.Pbft { instance; _ }
    | Proto.Message.Hotstuff { instance; _ }
    | Proto.Message.Raft { instance; _ } ->
        route_instance t ~src ~instance msg
    | Proto.Message.Garbled _ ->
        (* Ingress authentication (SB's authenticated channels): a message
           whose authenticator fails verification is dropped before any
           protocol handler sees it.  The sender — necessarily faulty, since
           honest nodes sign correctly — thereby silences itself: its
           instances stop making progress, view changes fill its slots with
           ⊥, and the leader policy bans it on that log evidence. *)
        t.auth_failures <- t.auth_failures + 1
    | Proto.Message.Reply _ | Proto.Message.Busy _ | Proto.Message.Bucket_update _
    | Proto.Message.Mir_epoch_change _ ->
        ()
  end

and route_instance t ~src ~instance msg =
  let msg_epoch = epoch_of_instance t instance in
  if msg_epoch > t.epoch.e_num then begin
    let buf =
      match Hashtbl.find_opt t.future_buffer msg_epoch with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.replace t.future_buffer msg_epoch b;
          b
    in
    buf := (src, msg) :: !buf
  end
  else begin
    (* [find], not [find_opt]: every protocol message passes here. *)
    match Hashtbl.find t.orderers instance with
    | inst -> inst.Orderer_intf.on_message ~src msg
    | exception Not_found -> ()  (* instance already garbage-collected; late message *)
  end

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~config ~id ~clock ~send:raw_send ~orderer_factory ?(hooks = default_hooks) ?tracer
    () =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Node.create: " ^ e));
  let num_buckets = Config.num_buckets config in
  let n = config.Config.n in
  let f = Config.max_faulty config in
  let t =
    {
      config;
      id;
      clock;
      raw_send;
      orderer_factory;
      hooks;
      tracer;
      keypair = Iss_crypto.Signature.genkey ~id;
      threshold_group = Iss_crypto.Threshold.setup ~n ~t:(min n ((2 * f) + 1));
      log = Log.create ();
      queues = Bucket_queue.create ~num_buckets;
      watermarks = Watermarks.create ~window:Config.client_watermark_window;
      policy = Leader_policy.create config;
      epoch =
        {
          e_num = -1;
          e_start = 0;
          e_len = 0;
          e_leaders = [||];
          e_bucket_leaders = [||];
          e_batcher = None;
          e_remaining = max_int;
        };
      orderers = Hashtbl.create 64;
      future_buffer = Hashtbl.create 8;
      cpu_free = Time_ns.zero;
      req_cum = 0;
      locally_delivered = 0;
      auth_failures = 0;
      shed_count = 0;
      pushback_count = 0;
      halted = false;
      straggler = false;
      st_target = 0;
      lag_timer = clock.timer ();
      self_handler = (fun ~src:_ _ -> ());
    }
  in
  t.self_handler <- (fun ~src msg -> handle_message t ~src msg);
  t

let start t =
  let leaders = Leader_policy.leaders t.policy ~epoch:0 in
  if Array.length leaders = 0 then invalid_arg "Node.start: no leaders for epoch 0";
  start_epoch t ~epoch:0 ~start_sn:0 ~leaders

let on_message t ~src msg = handle_message t ~src msg

let halt t =
  t.halted <- true;
  cancel_batcher t

let recover t =
  if t.halted then begin
    t.halted <- false;
    let now = t.clock.now () in
    (* The CPU backlog died with the process. *)
    t.cpu_free <- now;
    (* Restart batching for the segment this node leads in its current
       epoch: halt cancelled the timer, and pending cut requests from the
       orderers are still queued in [b.waiting]. *)
    Option.iter
      (fun b ->
        b.last_cut <- now;
        disarm b;
        try_cut t b)
      t.epoch.e_batcher;
    (* Catch up: ask f+1 distinct peers (one of them correct) for what
       stabilized while we were down; the state-transfer replies re-run the
       epoch machinery, and the lag check, re-armed from now on (its
       pre-crash fire is dropped), keeps firing until we draw level. *)
    let n = t.config.Config.n in
    let peers = min (n - 1) (Config.max_faulty t.config + 1) in
    for k = 1 to peers do
      send t
        ~dst:((t.id + k) mod n)
        (Proto.Message.State_request { from_sn = Log.first_undelivered t.log })
    done;
    arm_lag_check t
  end
