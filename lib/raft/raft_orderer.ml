module Time_ns = Sim.Time_ns
module Rt = Core.Orderer_intf.Runtime
module Timer = Core.Orderer_intf.Timer
module Msg = Proto.Raft_msg
module Proposal = Proto.Proposal

type role = Leader | Follower | Candidate

type t = {
  ctx : Core.Orderer_intf.ctx;
  seg : Core.Segment.t;
  rt : Rt.t;
  n : int;
  majority : int;
  len : int;  (* entries in the segment *)
  entries : Msg.entry option array;  (* my log, by segment index *)
  mutable term : int;
  mutable role : role;
  mutable voted_for : int option;  (* per current term *)
  mutable commit_idx : int;  (* highest committed index, -1 if none *)
  (* Leader state *)
  next_idx : int array;  (* per follower *)
  match_idx : int array;
  mutable appended : int;  (* entries appended to my log so far *)
  votes : (int, unit) Hashtbl.t;  (* candidates: granted votes *)
  mutable election_round : int;  (* doubles the timer window *)
  hb_timer : Timer.t;
  election_timer : Timer.t;
  rng : Sim.Rng.t;
}

let me t = t.ctx.Core.Orderer_intf.node

let create ctx seg =
  let n = ctx.Core.Orderer_intf.config.Core.Config.n in
  let len = Core.Segment.seq_count seg in
  let rt = Rt.create ctx seg in
  {
    ctx;
    seg;
    rt;
    n;
    majority = Proto.Ids.majority ~n;
    len;
    entries = Array.make len None;
    term = 0;
    role = (if ctx.Core.Orderer_intf.node = seg.Core.Segment.leader then Leader else Follower);
    voted_for = Some seg.Core.Segment.leader;
    commit_idx = -1;
    next_idx = Array.make n 0;
    match_idx = Array.make n (-1);
    appended = 0;
    votes = Hashtbl.create 8;
    election_round = 0;
    hb_timer = Rt.timer rt;
    election_timer = Rt.timer rt;
    rng =
      Sim.Rng.create
        ~seed:
          (Int64.of_int
             ((seg.Core.Segment.instance * 1_000_003) + ctx.Core.Orderer_intf.node + 1));
  }

let send_raft t ~dst body =
  t.ctx.Core.Orderer_intf.send ~dst
    (Proto.Message.Raft { Msg.instance = t.seg.Core.Segment.instance; body })

(* Entries are announced in index order, so the decided count is the
   announced prefix. *)
let announced_upto t = Rt.decided_count t.rt - 1

(* Last index of the contiguous prefix (and its term).  Elections compare
   logs by this — not by the highest filled index — because entries beyond
   a gap are unacknowledged and carry no weight in the up-to-date check. *)
let contiguous_last t =
  let m = ref (-1) in
  (try
     for i = 0 to t.len - 1 do
       if t.entries.(i) = None then raise Exit else m := i
     done
   with Exit -> ());
  let term =
    if !m >= 0 then match t.entries.(!m) with Some e -> e.Msg.term | None -> 0 else 0
  in
  (!m, term)

let rec announce_ready t =
  let idx = announced_upto t + 1 in
  if idx <= t.commit_idx then
    match t.entries.(idx) with
    | Some e ->
        Rt.announce t.rt ~sn:t.seg.Core.Segment.seq_nrs.(idx) e.Msg.proposal;
        announce_ready t
    | None -> () (* unreachable: commit_idx never passes a gap *)

(* ---- Election timer (follower / candidate) ------------------------- *)

let rec arm_election t =
  if Rt.ordering t.rt && t.role <> Leader then begin
    (* Random timer in [T, 2T), both bounds doubling with each failed
       election round (§4.2.3). *)
    let lo = Rt.backoff t.rt t.election_round in
    let delay = lo + Sim.Rng.int t.rng lo in
    Timer.arm t.election_timer ~delay (fun () -> start_election t)
  end
  else Timer.cancel t.election_timer

and start_election t =
  if Rt.ordering t.rt && t.role <> Leader then begin
    t.term <- t.term + 1;
    t.election_round <- t.election_round + 1;
    t.role <- Candidate;
    t.voted_for <- Some (me t);
    Hashtbl.reset t.votes;
    Hashtbl.replace t.votes (me t) ();
    let last_idx, last_term = contiguous_last t in
    for dst = 0 to t.n - 1 do
      if dst <> me t then
        send_raft t ~dst (Msg.Request_vote { term = t.term; last_idx; last_term })
    done;
    arm_election t
  end

(* ---- Leader side ---------------------------------------------------- *)

and replicate_to t ~dst =
  let from = t.next_idx.(dst) in
  let prev_idx = from - 1 in
  let prev_term =
    if prev_idx >= 0 then match t.entries.(prev_idx) with Some e -> e.Msg.term | None -> 0
    else 0
  in
  let rec collect i acc =
    if i >= t.len then List.rev acc
    else
      match t.entries.(i) with
      | Some e -> collect (i + 1) (e :: acc)
      | None -> List.rev acc
  in
  let entries = collect from [] in
  send_raft t ~dst
    (Msg.Append_entries
       { term = t.term; prev_idx; prev_term; entries; leader_commit = t.commit_idx })

and replicate_all t =
  for dst = 0 to t.n - 1 do
    if dst <> me t then replicate_to t ~dst
  done

and arm_heartbeat t =
  if Rt.active t.rt && t.role = Leader then begin
    let interval =
      max (t.ctx.Core.Orderer_intf.config.Core.Config.min_batch_timeout) (Time_ns.ms 200)
    in
    Timer.arm t.hb_timer ~delay:interval (fun () ->
        if Rt.active t.rt && t.role = Leader then begin
          (* Re-send everything unacknowledged — the redundant
             re-proposal behaviour the paper calls out. *)
          replicate_all t;
          arm_heartbeat t
        end)
  end
  else Timer.cancel t.hb_timer

and append_local t ~idx proposal =
  if t.entries.(idx) = None then begin
    t.entries.(idx) <- Some { Msg.idx; term = t.term; proposal };
    t.match_idx.(me t) <- max t.match_idx.(me t) idx;
    t.appended <- max t.appended (idx + 1)
  end

and leader_advance_commit t =
  (* Raft's commit rule (§5.4.2): an entry commits when it is replicated
     on a majority AND carries the leader's current term; entries from
     earlier terms are never committed by counting — they commit
     implicitly, as the prefix of a current-term commit.  Counting
     prior-term entries is the classic Figure-8 unsafety: a healed
     ex-leader's stale entry can sit on a majority and still be
     overwritten by a later leader. *)
  let counts idx =
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if t.match_idx.(i) >= idx then incr c
    done;
    !c
  in
  let target = ref t.commit_idx in
  for idx = t.commit_idx + 1 to t.len - 1 do
    match t.entries.(idx) with
    | Some e when e.Msg.term = t.term && counts idx >= t.majority -> target := idx
    | Some _ | None -> ()
  done;
  if !target > t.commit_idx then begin
    t.commit_idx <- !target;
    announce_ready t
  end

and become_leader t =
  t.role <- Leader;
  t.election_round <- 0;
  Timer.cancel t.election_timer;
  (* Re-stamp the whole segment log with the new term, preserving the
     values (⊥ in the holes — design principle 2: a takeover leader never
     proposes client batches).  A fixed-length log has no room for Raft's
     no-op entry, and the commit rule only counts current-term entries, so
     without the re-stamp a takeover leader holding a full log could never
     commit anything again.  Committed values survive: leader election's
     up-to-date check guarantees this log contains every committed entry,
     and the re-stamp changes terms only. *)
  for idx = 0 to t.len - 1 do
    let proposal =
      match t.entries.(idx) with Some e -> e.Msg.proposal | None -> Proposal.Nil
    in
    t.entries.(idx) <- Some { Msg.idx; term = t.term; proposal }
  done;
  t.appended <- t.len;
  for i = 0 to t.n - 1 do
    t.next_idx.(i) <- t.len;
    if i <> me t then t.match_idx.(i) <- -1
  done;
  t.match_idx.(me t) <- t.len - 1;
  replicate_all t;
  arm_heartbeat t

(* ---- Initial leader proposal flow ----------------------------------- *)

let propose_all t =
  Array.iteri
    (fun idx sn ->
      t.ctx.Core.Orderer_intf.request_batch ~sn (fun proposal ->
          if Rt.active t.rt && t.role = Leader then begin
            append_local t ~idx proposal;
            replicate_all t;
            leader_advance_commit t
          end))
    t.seg.Core.Segment.seq_nrs

(* ---- Follower side --------------------------------------------------- *)

let handle_append t ~src ~term ~prev_idx ~prev_term ~entries ~leader_commit =
  if term >= t.term && not (src = me t) then begin
    if term > t.term then begin
      t.term <- term;
      t.voted_for <- None
    end;
    if t.role <> Follower && src <> me t then t.role <- Follower;
    t.election_round <- 0;
    arm_election t;
    (* Consistency check on the previous entry.  Same index and term imply
       the same value (one leader per term writes each index exactly
       once), so a term match anchors the rest of the exchange. *)
    let consistent =
      prev_idx < 0
      ||
      match t.entries.(prev_idx) with
      | Some e -> e.Msg.term = prev_term
      | None -> false
    in
    if consistent then begin
      List.iter
        (fun (e : Msg.entry) ->
          if e.Msg.idx >= 0 && e.Msg.idx < t.len then
            match t.entries.(e.Msg.idx) with
            | None -> t.entries.(e.Msg.idx) <- Some e
            | Some old when old.Msg.term <> e.Msg.term ->
                (* Conflict: the current leader's entry wins (Raft's log
                   repair).  An index already delivered can only be
                   re-stamped, never re-valued — leader completeness
                   guarantees the values agree, and checking keeps a
                   divergent entry from silently replacing a delivery. *)
                if
                  e.Msg.idx > announced_upto t
                  || Iss_crypto.Hash.equal
                       (Proposal.digest old.Msg.proposal)
                       (Proposal.digest e.Msg.proposal)
                then t.entries.(e.Msg.idx) <- Some e
            | Some _ -> ())
        entries;
      (* Ack only the verified prefix: what the consistency check plus
         this append actually pinned down.  Acking the raw contiguous
         prefix would vouch for stale pre-conflict entries beyond the
         window and let the leader count (and commit) them. *)
      let m = ref (-1) in
      (try
         for i = 0 to t.len - 1 do
           if t.entries.(i) = None then begin
             m := i - 1;
             raise Exit
           end
         done;
         m := t.len - 1
       with Exit -> ());
      let ack = min !m (prev_idx + List.length entries) in
      if min leader_commit ack > t.commit_idx then begin
        t.commit_idx <- min leader_commit ack;
        announce_ready t
      end;
      send_raft t ~dst:src (Msg.Append_reply { term = t.term; success = true; match_idx = ack })
    end
    else
      send_raft t ~dst:src
        (Msg.Append_reply { term = t.term; success = false; match_idx = prev_idx - 1 })
  end

let handle_append_reply t ~src ~term ~success ~match_idx =
  if Rt.active t.rt && t.role = Leader && term = t.term then
    if success then begin
      if match_idx > t.match_idx.(src) then begin
        t.match_idx.(src) <- match_idx;
        t.next_idx.(src) <- match_idx + 1;
        leader_advance_commit t
      end
    end
    else begin
      (* Walk back one step and retry immediately — waiting for the next
         heartbeat would make log repair crawl at the heartbeat period. *)
      t.next_idx.(src) <- min (max 0 match_idx) (max 0 (t.next_idx.(src) - 1));
      replicate_to t ~dst:src
    end

let handle_request_vote t ~src ~term ~last_idx ~last_term =
  if term > t.term then begin
    t.term <- term;
    t.voted_for <- None;
    if t.role = Leader then Timer.cancel t.hb_timer;
    t.role <- Follower
  end;
  let my_last = ref (-1) in
  Array.iteri (fun i e -> if e <> None then my_last := i) t.entries;
  let my_last_term =
    if !my_last >= 0 then match t.entries.(!my_last) with Some e -> e.Msg.term | None -> 0
    else 0
  in
  let up_to_date =
    last_term > my_last_term || (last_term = my_last_term && last_idx >= !my_last)
  in
  let grant = term = t.term && t.voted_for = None && up_to_date in
  if grant then begin
    t.voted_for <- Some src;
    arm_election t
  end;
  send_raft t ~dst:src (Msg.Vote_reply { term = t.term; granted = grant })

let handle_vote_reply t ~src ~term ~granted =
  if Rt.active t.rt && t.role = Candidate && term = t.term && granted then begin
    Hashtbl.replace t.votes src ();
    if Hashtbl.length t.votes >= t.majority then become_leader t
  end

(* ---- SB instance ---------------------------------------------------- *)

let start t =
  Rt.start t.rt;
  if t.role = Leader then begin
    arm_heartbeat t;
    propose_all t
  end
  else arm_election t

let on_message t ~src msg =
  match msg with
  | Proto.Message.Raft { Msg.body; _ } -> (
      match body with
      | Msg.Append_entries { term; prev_idx; prev_term; entries; leader_commit } ->
          handle_append t ~src ~term ~prev_idx ~prev_term ~entries ~leader_commit
      | Msg.Append_reply { term; success; match_idx } ->
          handle_append_reply t ~src ~term ~success ~match_idx
      | Msg.Request_vote { term; last_idx; last_term } ->
          handle_request_vote t ~src ~term ~last_idx ~last_term
      | Msg.Vote_reply { term; granted } -> handle_vote_reply t ~src ~term ~granted)
  | _ -> ()

let factory ctx seg =
  let t = create ctx seg in
  Rt.instance t.rt ~start:(fun () -> start t) ~on_message:(on_message t)
