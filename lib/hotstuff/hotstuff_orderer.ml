module Rt = Core.Orderer_intf.Runtime
module Timer = Core.Orderer_intf.Timer
module Msg = Proto.Hotstuff_msg
module Proposal = Proto.Proposal
module Hash = Iss_crypto.Hash

type t = {
  rt : Msg.body Rt.t;
  n : int;
  quorum : int;
  genesis_parent : Hash.t;  (* parent digest of the instance's first node *)
  chain : (string, Msg.chain_node) Hashtbl.t;  (* node digest (raw) -> node *)
  qcs : (int, Msg.qc) Hashtbl.t;  (* view -> QC *)
  shares : (int, Iss_crypto.Threshold.share) Hashtbl.t;
      (* leader: voter -> share, for [last_proposed] *)
  new_views : (int, (int, int * Msg.qc option) Hashtbl.t) Hashtbl.t;
      (* leader-designate: rotation -> sender -> (nv view, justify) *)
  nv_rotations : (int, int) Hashtbl.t;
      (* pacemaker sync: sender -> highest rotation it announced *)
  mutable high_qc : Msg.qc option;
  mutable locked_view : int;
  mutable last_voted_view : int;
  mutable rotations : int;  (* pacemaker leader rotations *)
  mutable complained_view : int;  (* last view eagerly rotated for a provably-bad proposal *)
  mutable i_am_leader : bool;
  mutable to_propose : int list;  (* sns still to put on the chain (leader) *)
  mutable dummies_left : int;
  mutable last_proposed : (int * Hash.t) option;  (* (view, digest) awaiting QC *)
  timer : Timer.t;  (* pacemaker *)
  missing : (string, unit) Hashtbl.t;  (* ancestor digests being fetched *)
  pending_decide : (string, Msg.chain_node) Hashtbl.t;
      (* committed tips whose branch walk stalled on a missing ancestor *)
  sync_timer : Timer.t;  (* fetch retransmission *)
}

let create ctx seg =
  let n = ctx.Core.Orderer_intf.config.Core.Config.n in
  let instance = seg.Core.Segment.instance in
  let rt =
    Rt.create ctx seg
      ~wrap:(fun body -> Proto.Message.Hotstuff { Msg.instance; body })
      ~fill_request:(fun sns -> Msg.Fill_request { sns })
  in
  {
    rt;
    n;
    quorum = Proto.Ids.quorum ~n;
    genesis_parent = Hash.of_string (Printf.sprintf "hs-genesis:%d" instance);
    chain = Hashtbl.create 64;
    qcs = Hashtbl.create 64;
    shares = Hashtbl.create 8;
    new_views = Hashtbl.create 8;
    nv_rotations = Hashtbl.create 8;
    high_qc = None;
    locked_view = -1;
    last_voted_view = -1;
    rotations = 0;
    complained_view = -1;
    i_am_leader = false;
    to_propose = Array.to_list seg.Core.Segment.seq_nrs;
    dummies_left = 3;
    last_proposed = None;
    timer = Rt.timer rt;
    missing = Hashtbl.create 4;
    pending_decide = Hashtbl.create 4;
    sync_timer = Rt.timer rt;
  }

let ctx t = t.rt.Rt.ctx
let seg t = t.rt.Rt.seg
let me t = (ctx t).Core.Orderer_intf.node
let current_leader t = ((seg t).Core.Segment.leader + t.rotations) mod t.n

(* ---- Decide pipeline ---------------------------------------------- *)

(* Block sync.  A replica may commit a branch whose ancestors it never
   received (their proposal messages were dropped).  The same sequence
   number can legitimately appear twice on a branch — a batch, then a ⊥
   re-proposal after a rotation — and [decide_branch] relies on walking
   oldest-first to announce the earlier (committed) occurrence; skipping a
   missing ancestor would announce the ⊥ duplicate instead and diverge
   from replicas that hold the full branch.  So a gap suspends the decide
   and fetches the ancestor by digest from peers, retrying on a timer
   until the branch is whole (standard chained-HotStuff block sync). *)
let rec request_block t digest =
  if not (Hashtbl.mem t.missing (Hash.raw digest)) then begin
    Hashtbl.replace t.missing (Hash.raw digest) ();
    Rt.broadcast t.rt (Msg.Fetch { digest })
  end;
  arm_sync_timer t

and arm_sync_timer t =
  if (not (Timer.armed t.sync_timer)) && Rt.active t.rt && Hashtbl.length t.missing > 0 then
    Timer.arm t.sync_timer ~delay:(ctx t).Core.Orderer_intf.config.Core.Config.epoch_change_timeout
      (fun () ->
        if Rt.active t.rt then begin
          Hashtbl.iter
            (fun raw () -> Rt.broadcast t.rt (Msg.Fetch { digest = Hash.of_raw raw }))
            t.missing;
          arm_sync_timer t
        end)

(* Announce a chain node and all its undecided ancestors, oldest first.
   Returns [false] — and starts fetching — when an ancestor is missing;
   nothing on the branch is announced until it is whole. *)
let rec decide_branch t (node : Msg.chain_node) =
  let ancestors_ok =
    Hash.equal node.Msg.parent t.genesis_parent
    ||
    match Hashtbl.find_opt t.chain (Hash.raw node.Msg.parent) with
    | Some parent -> decide_branch t parent
    | None ->
        request_block t node.Msg.parent;
        false
  in
  if ancestors_ok && node.Msg.sn >= 0 && not (Rt.is_decided t.rt node.Msg.sn) then begin
    Rt.announce t.rt ~sn:node.Msg.sn node.Msg.proposal;
    if Rt.done_ t.rt then Timer.cancel t.timer
  end;
  ancestors_ok

(* [raw] is the node's digest, known to every caller as its chain key. *)
let decide_or_suspend t ~raw (node : Msg.chain_node) =
  if decide_branch t node then Hashtbl.remove t.pending_decide raw
  else Hashtbl.replace t.pending_decide raw node

(* Three-chain commit rule over consecutive views (paper Fig. 4). *)
let try_decide t (qc : Msg.qc) =
  match Hashtbl.find_opt t.chain (Hash.raw qc.Msg.qc_digest) with
  | None -> ()
  | Some n2 -> (
      match Hashtbl.find_opt t.chain (Hash.raw n2.Msg.parent) with
      | Some n1 when n1.Msg.view = n2.Msg.view - 1 && Hashtbl.mem t.qcs n1.Msg.view -> (
          match Hashtbl.find_opt t.chain (Hash.raw n1.Msg.parent) with
          | Some n0 when n0.Msg.view = n1.Msg.view - 1 && Hashtbl.mem t.qcs n0.Msg.view ->
              decide_or_suspend t ~raw:(Hash.raw n1.Msg.parent) n0
          | Some _ | None -> ())
      | Some _ | None -> ())

let register_qc t (qc : Msg.qc) =
  if not (Hashtbl.mem t.qcs qc.Msg.qc_view) then begin
    Hashtbl.replace t.qcs qc.Msg.qc_view qc;
    (match t.high_qc with
    | Some h when h.Msg.qc_view >= qc.Msg.qc_view -> ()
    | Some _ | None -> t.high_qc <- Some qc);
    t.locked_view <- max t.locked_view (qc.Msg.qc_view - 1);
    try_decide t qc
  end

(* ---- Leader side ---------------------------------------------------- *)

(* A new proposal opens a new vote tally: votes count only for the
   proposal in flight. *)
let send_proposal t (node : Msg.chain_node) =
  let digest = Msg.node_digest node in
  Hashtbl.replace t.chain (Hash.raw digest) node;
  t.last_proposed <- Some (node.Msg.view, digest);
  Hashtbl.clear t.shares;
  Rt.broadcast t.rt (Msg.Proposal_msg node)

(* Note: proposing must NOT stop once the instance is done — the leader
   typically decides the whole segment while replicas still need the
   trailing dummy proposals to learn the final QCs (the pipeline flush of
   Fig. 4).  [rotated] marks a rotated leader's first proposal, whose view
   need not follow its justify's. *)
let rec propose_next ?(rotated = false) t ~view ~parent ~justify =
  if Rt.active t.rt && t.i_am_leader then begin
    let make_and_send sn proposal = send_proposal t { Msg.view; sn; parent; proposal; justify } in
    match t.to_propose with
    | sn :: rest ->
        t.to_propose <- rest;
        if me t = (seg t).Core.Segment.leader && not rotated then
          (* Original leader: cut a real batch (asynchronous: the ISS
             batcher paces us). *)
          (ctx t).Core.Orderer_intf.request_batch ~sn (fun proposal ->
              if Rt.active t.rt && t.i_am_leader then make_and_send sn proposal)
        else
          (* Rotated leader: design principle 2 — only ⊥. *)
          make_and_send sn Proposal.Nil
    | [] ->
        if t.dummies_left > 0 then begin
          t.dummies_left <- t.dummies_left - 1;
          make_and_send (-1) Proposal.Nil
        end
  end

and on_qc_formed t (qc : Msg.qc) =
  register_qc t qc;
  propose_next t ~view:(qc.Msg.qc_view + 1) ~parent:qc.Msg.qc_digest ~justify:(Some qc)

let handle_vote t ~src ~view ~digest share =
  if Rt.active t.rt && t.i_am_leader then begin
    match t.last_proposed with
    | Some (v, d) when v = view && Hash.equal d digest && not (Hashtbl.mem t.shares src) ->
        Hashtbl.replace t.shares src share;
        if Hashtbl.length t.shares >= t.quorum then begin
          let material = Msg.vote_material ~instance:(seg t).Core.Segment.instance ~view digest in
          let shares = Hashtbl.fold (fun _ s acc -> s :: acc) t.shares [] in
          match
            Iss_crypto.Threshold.combine (ctx t).Core.Orderer_intf.threshold_group material shares
          with
          | Some combined ->
              t.last_proposed <- None;
              let qc = { Msg.qc_view = view; qc_digest = digest; qc_sig = combined } in
              let cost = Iss_crypto.Threshold.combine_cost_ns ~t:t.quorum in
              (ctx t).Core.Orderer_intf.charge_cpu cost (fun () ->
                  if Rt.active t.rt then on_qc_formed t qc)
          | None -> ()
        end
    | Some _ | None -> ()
  end

(* ---- Replica side --------------------------------------------------- *)

let qc_valid t (qc : Msg.qc) =
  let material =
    Msg.vote_material ~instance:(seg t).Core.Segment.instance ~view:qc.Msg.qc_view
      qc.Msg.qc_digest
  in
  Iss_crypto.Threshold.verify (ctx t).Core.Orderer_intf.threshold_group material qc.Msg.qc_sig

let rec handle_proposal t ~src (node : Msg.chain_node) =
  if Rt.active t.rt && src = current_leader t && node.Msg.view > t.last_voted_view then begin
    let justify_ok =
      match node.Msg.justify with
      | None ->
          (* Genesis acts as an implicit QC at view -1: a justify-free
             proposal is valid at ANY view while this replica holds no
             lock, not just view 0.  A rotated leader must be able to
             restart from genesis when no QC ever formed (first proposal
             or its votes lost) — with the view-0-only rule every
             post-rotation proposal of such a segment is rejected forever.
             Safe: a committed value implies 2f+1 replicas locked >= 0,
             and any QC for a genesis restart would need 2f+1 votes, which
             intersect them in a correct replica that refuses this arm. *)
          Hash.equal node.Msg.parent t.genesis_parent && t.locked_view < 0
      | Some qc ->
          qc.Msg.qc_view < node.Msg.view
          && Hash.equal node.Msg.parent qc.Msg.qc_digest
          && qc.Msg.qc_view >= t.locked_view
          && qc_valid t qc
    in
    let content =
      match node.Msg.proposal with
      | Proposal.Nil -> Core.Orderer_intf.Accept  (* dummies and ⊥ fills are always safe *)
      | Proposal.Batch _ ->
          if
            node.Msg.sn >= 0
            && Core.Segment.contains_sn (seg t) node.Msg.sn
            && src = (seg t).Core.Segment.leader
          then (ctx t).Core.Orderer_intf.validate_proposal (seg t) ~sn:node.Msg.sn node.Msg.proposal
          else Core.Orderer_intf.Reject
    in
    (match content with
    | Core.Orderer_intf.Reject_malicious when node.Msg.view > t.complained_view ->
        (* The proposal proves the leader faulty (forged request signature
           or out-of-bucket request).  Rotate away from it now instead of
           letting the pacemaker time out — once per proposal view, so a
           spamming leader cannot drive the rotation counter by itself. *)
        t.complained_view <- node.Msg.view;
        on_timeout t
    | _ -> ());
    let content_ok = content = Core.Orderer_intf.Accept in
    if justify_ok && content_ok then begin
      (match node.Msg.justify with Some qc -> register_qc t qc | None -> ());
      let digest = Msg.node_digest node in
      Hashtbl.replace t.chain (Hash.raw digest) node;
      t.last_voted_view <- node.Msg.view;
      let material =
        Msg.vote_material ~instance:(seg t).Core.Segment.instance ~view:node.Msg.view digest
      in
      let share =
        Iss_crypto.Threshold.sign_share (ctx t).Core.Orderer_intf.threshold_group ~signer:(me t)
          material
      in
      let verify_cost =
        Rt.signature_cost t.rt node.Msg.proposal + Iss_crypto.Threshold.share_sign_cost_ns
      in
      (ctx t).Core.Orderer_intf.charge_cpu verify_cost (fun () ->
          if Rt.active t.rt then
            Rt.send t.rt ~dst:(current_leader t)
              (Msg.Vote { view = node.Msg.view; digest; share }))
    end
  end

(* ---- Pacemaker ------------------------------------------------------ *)

and arm_timer t =
  if Rt.ordering t.rt then begin
    Timer.arm t.timer ~delay:(Rt.backoff t.rt t.rotations) (fun () -> on_timeout t)
  end
  else Timer.cancel t.timer

and on_timeout t =
  if Rt.ordering t.rt then begin
    t.rotations <- t.rotations + 1;
    t.i_am_leader <- false;
    broadcast_new_view t;
    arm_timer t
  end

(* Broadcast (not just to the leader-designate): every replica tracks the
   rotations its peers announce, which is what lets loss-diverged
   rotation counters re-converge (see fast_forward below). *)
and broadcast_new_view t =
  Rt.broadcast t.rt
    (Msg.New_view
       { view = t.last_voted_view + 1; rotation = t.rotations; justify = t.high_qc })

let leader_of_rotation t rotation = ((seg t).Core.Segment.leader + rotation) mod t.n

let become_rotated_leader t ~rotation ~views =
  t.rotations <- rotation;
  t.i_am_leader <- true;
  (* Re-propose ⊥ for everything not yet decided, then flush with
     dummies, starting above every view a quorum member voted in. *)
  t.to_propose <- Rt.undecided t.rt;
  t.dummies_left <- 3;
  let start_view =
    let nv = List.fold_left max 0 views in
    let hq = match t.high_qc with Some qc -> qc.Msg.qc_view + 1 | None -> 0 in
    max (max nv hq) (t.last_voted_view + 1)
  in
  let parent, justify =
    match t.high_qc with
    | Some qc -> (qc.Msg.qc_digest, Some qc)
    | None -> (t.genesis_parent, None)
  in
  (* A rotated leader's first proposal may legitimately carry a justify
     that is not view-1; replicas accept it because the justify is their
     locked view or higher. *)
  propose_next ~rotated:true t ~view:start_view ~parent ~justify

let handle_new_view t ~src ~view ~rotation ~justify =
  if Rt.ordering t.rt then begin
    (match justify with
    | Some qc when qc_valid t qc -> register_qc t qc
    | Some _ | None -> ());
    (* Pacemaker sync: when f+1 peers announce a higher rotation than
       mine, they cannot all be faulty — fast-forward and join them
       (otherwise counters diverged by uneven message loss may never meet
       at one leader again). *)
    (match Hashtbl.find_opt t.nv_rotations src with
    | Some r when r >= rotation -> ()
    | Some _ | None -> Hashtbl.replace t.nv_rotations src rotation);
    let f1 = Proto.Ids.max_faulty ~n:t.n + 1 in
    let announced =
      Hashtbl.fold (fun _ r acc -> r :: acc) t.nv_rotations []
      |> List.sort (fun a b -> compare b a)
    in
    (match List.nth_opt announced (f1 - 1) with
    | Some r_star when r_star > t.rotations ->
        t.rotations <- r_star;
        t.i_am_leader <- false;
        broadcast_new_view t;
        arm_timer t
    | Some _ | None -> ());
    (* Leader-designate of [rotation]: collect a quorum of New_views
       carrying exactly that rotation, then take over the segment. *)
    if
      leader_of_rotation t rotation = me t
      && rotation >= t.rotations
      && not (t.i_am_leader && t.rotations = rotation)
    then begin
      let tbl =
        match Hashtbl.find_opt t.new_views rotation with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 8 in
            Hashtbl.replace t.new_views rotation tbl;
            tbl
      in
      Hashtbl.replace tbl src (view, justify);
      if Hashtbl.length tbl >= t.quorum then begin
        let views = Hashtbl.fold (fun _ (v, _) acc -> v :: acc) tbl [] in
        become_rotated_leader t ~rotation ~views;
        arm_timer t
      end
    end
  end

(* ---- SB instance ---------------------------------------------------- *)

let start t =
  Rt.start t.rt;
  arm_timer t;
  Rt.arm_recovery t.rt;
  if (seg t).Core.Segment.leader = me t then begin
    t.i_am_leader <- true;
    propose_next t ~view:0 ~parent:t.genesis_parent ~justify:None
  end

let on_message t ~src msg =
  match msg with
  | Proto.Message.Hotstuff { Msg.body; _ } -> (
      match body with
      | Msg.Proposal_msg node ->
          handle_proposal t ~src node;
          (* Progress resets the pacemaker. *)
          if src = current_leader t then arm_timer t
      | Msg.Vote { view; digest; share } -> handle_vote t ~src ~view ~digest share
      | Msg.New_view { view; rotation; justify } ->
          handle_new_view t ~src ~view ~rotation ~justify
      | Msg.Fetch { digest } -> (
          match Hashtbl.find_opt t.chain (Hash.raw digest) with
          | Some node -> Rt.send t.rt ~dst:src (Msg.Fetch_resp { node })
          | None -> ())
      | Msg.Fetch_resp { node } ->
          (* Self-certifying: key the node under its recomputed digest and
             only accept it if we actually asked for that digest. *)
          let raw = Hash.raw (Msg.node_digest node) in
          if Hashtbl.mem t.missing raw then begin
            Hashtbl.remove t.missing raw;
            Hashtbl.replace t.chain raw node;
            if Hashtbl.length t.missing = 0 then Timer.cancel t.sync_timer;
            (* Retry every suspended decide; branches still gapped re-add
               themselves (and re-fetch the next missing ancestor). *)
            let tips = Hashtbl.fold (fun raw n acc -> (raw, n) :: acc) t.pending_decide [] in
            List.iter (fun (raw, n) -> decide_or_suspend t ~raw n) tips
          end
      | Msg.Fill_request { sns } ->
          Rt.answer_fill t.rt ~sns (fun ~sn proposal ->
              Rt.send t.rt ~dst:src (Msg.Fill { sn; proposal }))
      | Msg.Fill { sn; proposal } ->
          if Rt.fill_confirms t.rt ~src ~sn proposal then begin
            Rt.announce t.rt ~sn proposal;
            if Rt.done_ t.rt then begin
              Timer.cancel t.timer;
              Timer.cancel t.sync_timer
            end
          end)
  | _ -> ()

let factory ctx seg =
  let t = create ctx seg in
  Rt.instance t.rt ~start:(fun () -> start t) ~on_message:(on_message t)
