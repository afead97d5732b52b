module Rt = Core.Orderer_intf.Runtime
module Timer = Core.Orderer_intf.Timer
module Msg = Proto.Pbft_msg
module Proposal = Proto.Proposal

type slot = {
  sn : int;
  mutable accepted : (int * Proposal.t) option;  (* (view, proposal) pre-prepared here *)
  prepares : Votes.t;
  commits : Votes.t;
  mutable prepared : (int * Proposal.t) option;  (* highest view prepared cert *)
}

type t = {
  ctx : Core.Orderer_intf.ctx;
  seg : Core.Segment.t;
  rt : Rt.t;
  n : int;
  quorum : int;
  slots : (int, slot) Hashtbl.t;  (* sn -> *)
  mutable view : int;
  vc_timer : Timer.t;
  view_changes : (int, (int, Msg.view_change) Hashtbl.t) Hashtbl.t;
      (* new_view -> sender -> vc *)
  mutable highest_vc_sent : int;
  mutable last_nv : (int * Msg.body) option;
      (* NEW-VIEW already broadcast for this view: late view changes
         trigger an identical re-send, never a recomputed one.  A primary
         that recomputed could equivocate against itself — certificates
         that surface after the first broadcast would flip ⊥-filled slots
         to a value half the cluster already voted ⊥ on. *)
}

let primary t view = (t.seg.Core.Segment.leader + view) mod t.n

(* [find], not [find_opt]: a hit allocates nothing.  Callers pass only
   sns of the segment, so a peer cannot grow the table by naming others. *)
let slot t sn =
  match Hashtbl.find t.slots sn with
  | s -> s
  | exception Not_found ->
      let s =
        {
          sn;
          accepted = None;
          prepares = Votes.create ~n:t.n;
          commits = Votes.create ~n:t.n;
          prepared = None;
        }
      in
      Hashtbl.replace t.slots sn s;
      s

let pbft ~instance body = Proto.Message.Pbft { Msg.instance; body }

let create ctx seg =
  let n = ctx.Core.Orderer_intf.config.Core.Config.n in
  let instance = seg.Core.Segment.instance in
  let rt =
    Rt.create ctx seg ~fill_request:(fun sns ->
        ctx.Core.Orderer_intf.broadcast (pbft ~instance (Msg.Fill_request { sns })))
  in
  {
    ctx;
    seg;
    rt;
    n;
    quorum = Proto.Ids.quorum ~n;
    slots = Hashtbl.create (Core.Segment.seq_count seg * 2);
    view = 0;
    vc_timer = Rt.timer rt;
    view_changes = Hashtbl.create 4;
    highest_vc_sent = 0;
    last_nv = None;
  }

let broadcast_pbft t body =
  t.ctx.Core.Orderer_intf.broadcast (pbft ~instance:t.seg.Core.Segment.instance body)

(* The view-change timeout doubles with the view number so that, after
   GST, it eventually exceeds the network delay (◇S(bz) completeness,
   §4.2.4). *)
let rec arm_vc_timer t =
  if Rt.ordering t.rt then begin
    Timer.arm t.vc_timer ~delay:(Rt.backoff t.rt t.view) (fun () ->
        start_view_change t (t.view + 1))
  end
  else Timer.cancel t.vc_timer

and start_view_change t new_view =
  if Rt.ordering t.rt && new_view > t.highest_vc_sent then begin
    t.highest_vc_sent <- new_view;
    (* Gather prepared certificates for the open sequence numbers —
       including slots already committed here.  Hiding committed slots
       would let a new primary that never saw their quorum fill them with
       ⊥ (divergence) or skip them entirely, leaving peers that missed a
       commit vote wedged; a committed value is prepared by definition, so
       reporting it is always safe. *)
    let prepared =
      Hashtbl.fold
        (fun sn s acc ->
          let cert =
            match (s.prepared, s.accepted) with
            | Some (view, proposal), _ -> Some (view, proposal)
            | None, Some (view, proposal) when Rt.is_decided t.rt sn -> Some (view, proposal)
            | None, _ -> None
          in
          match cert with
          | Some (view, proposal) -> { Msg.sn; view; proposal } :: acc
          | None -> acc)
        t.slots []
    in
    let vc_signer = t.ctx.Core.Orderer_intf.node in
    let material =
      Msg.view_change_material ~instance:t.seg.Core.Segment.instance ~new_view ~vc_signer
        prepared
    in
    let vc_sig = Iss_crypto.Signature.sign t.ctx.Core.Orderer_intf.keypair material in
    let vc = { Msg.new_view; prepared; vc_signer; vc_sig } in
    t.view <- new_view;
    broadcast_pbft t (Msg.View_change vc);
    arm_vc_timer t
  end

let verify_vc t (vc : Msg.view_change) =
  let material =
    Msg.view_change_material ~instance:t.seg.Core.Segment.instance ~new_view:vc.Msg.new_view
      ~vc_signer:vc.Msg.vc_signer vc.Msg.prepared
  in
  Iss_crypto.Signature.verify
    (Iss_crypto.Signature.public_of_id vc.Msg.vc_signer)
    material vc.Msg.vc_sig

(* --- Commit pipeline ------------------------------------------------ *)

let try_announce t s =
  match s.accepted with
  (* Same view gate as [try_commit]: commit votes of a view this replica
     abandoned must not reach an announce quorum here while the rest of
     the cluster commits the new view's replacement value. *)
  | Some (view, proposal) when view = t.view && not (Rt.is_decided t.rt s.sn) ->
      if Votes.count s.commits ~view (Proposal.digest proposal) >= t.quorum then begin
        Rt.announce t.rt ~sn:s.sn proposal;
        arm_vc_timer t
      end
  | Some _ | None -> ()

(* Adopt a value confirmed through slot recovery. *)
let force_commit t s ~view proposal =
  s.accepted <- Some (view, proposal);
  s.prepared <- Some (view, proposal);
  Rt.announce t.rt ~sn:s.sn proposal;
  arm_vc_timer t

let try_commit t s =
  match s.accepted with
  (* [view = t.view]: once this replica demanded a view change it must
     stop forming prepared certificates in the abandoned view — its
     VIEW-CHANGE message already told the next primary it had prepared
     nothing here, and a certificate formed after that fact is invisible
     to the new-view quorum intersection (the classic split-brain:
     old-view commits racing a ⊥-filling NEW-VIEW). *)
  | Some (view, proposal)
    when view = t.view && (s.prepared = None || fst (Option.get s.prepared) < view) ->
      let digest = Proposal.digest proposal in
      if Votes.count s.prepares ~view digest >= t.quorum then begin
        s.prepared <- Some (view, proposal);
        Votes.set s.commits ~view ~node:t.ctx.Core.Orderer_intf.node digest;
        broadcast_pbft t (Msg.Commit { view; sn = s.sn; digest });
        try_announce t s
      end
  | Some _ | None -> ()

(* Accept a pre-prepare (from the live primary or replayed out of a
   NEW-VIEW) and respond with a PREPARE vote. *)
let accept_preprepare t ~view ~sn proposal =
  if Rt.is_decided t.rt sn then begin
    let s = slot t sn in
    (* Already committed here; a later view may re-propose the value for
       peers that missed the original quorum (e.g. under message loss).
       Vote PREPARE and COMMIT straight away — a quorum already committed
       this exact value, so the votes are safe — but never announce
       twice. *)
    match s.accepted with
    | Some (v, committed)
      when v < view
           && Iss_crypto.Hash.equal (Proposal.digest committed) (Proposal.digest proposal)
      ->
        s.accepted <- Some (view, committed);
        let digest = Proposal.digest committed in
        Votes.set s.prepares ~view ~node:t.ctx.Core.Orderer_intf.node digest;
        Votes.set s.commits ~view ~node:t.ctx.Core.Orderer_intf.node digest;
        broadcast_pbft t (Msg.Prepare { view; sn; digest });
        broadcast_pbft t (Msg.Commit { view; sn; digest })
    | Some _ | None -> ()
  end
  else if Core.Segment.contains_sn t.seg sn then begin
    let s = slot t sn in
    let fresh =
      match s.accepted with Some (v, _) -> v < view | None -> true
    in
    (* Design principle 3(d): a non-⊥ proposal is acceptable only when the
       segment leader originally sb-cast it.  In view 0 that is the
       sender; in later views, non-⊥ values are only replayed from
       prepared certificates, which themselves originate in view 0. *)
    let verdict =
      match proposal with
      | Proposal.Nil ->
          if view > 0 then Core.Orderer_intf.Accept else Core.Orderer_intf.Reject
      | Proposal.Batch _ ->
          t.ctx.Core.Orderer_intf.validate_proposal t.seg ~sn proposal
    in
    match verdict with
    | Core.Orderer_intf.Accept when fresh ->
        s.accepted <- Some (view, proposal);
        let digest = Proposal.digest proposal in
        let verify_cost = Rt.signature_cost t.rt proposal in
        let vote () =
          Votes.set s.prepares ~view ~node:t.ctx.Core.Orderer_intf.node digest;
          broadcast_pbft t (Msg.Prepare { view; sn; digest });
          try_commit t s
        in
        if verify_cost > 0 then t.ctx.Core.Orderer_intf.charge_cpu verify_cost vote
        else vote ()
    | Core.Orderer_intf.Reject_malicious ->
        (* The proposal {e proves} its sender faulty (forged request
           signature or out-of-bucket request — things an honest leader
           cannot cut).  Don't wait out the view-change timer: demand the
           next view immediately so the segment's slots get ⊥-filled and
           the leader policy collects the evidence this epoch. *)
        start_view_change t (view + 1)
    | Core.Orderer_intf.Accept | Core.Orderer_intf.Reject -> ()
  end

(* --- Leader side ---------------------------------------------------- *)

let propose_all t =
  (* Queue a batch request for every sequence number; ISS's batcher paces
     the callbacks (rate limiting, §4.4.1), so proposals flow in parallel
     but never faster than the configured wire rate. *)
  Array.iter
    (fun sn ->
      t.ctx.Core.Orderer_intf.request_batch ~sn (fun proposal ->
          if Rt.active t.rt && t.view = 0 then begin
            broadcast_pbft t (Msg.Preprepare { view = 0; sn; proposal })
          end))
    t.seg.Core.Segment.seq_nrs

(* --- View change handling ------------------------------------------ *)

let process_new_view t ~view ~view_changes ~preprepares =
  if view >= t.view && Rt.active t.rt then begin
    let valid = List.filter (verify_vc t) view_changes in
    let distinct = List.sort_uniq compare (List.map (fun vc -> vc.Msg.vc_signer) valid) in
    if List.length distinct >= t.quorum then begin
      t.view <- view;
      t.highest_vc_sent <- max t.highest_vc_sent view;
      List.iter (fun (sn, proposal) -> accept_preprepare t ~view ~sn proposal) preprepares;
      arm_vc_timer t
    end
  end

let maybe_become_leader t new_view =
  if primary t new_view = t.ctx.Core.Orderer_intf.node && Rt.active t.rt then begin
    match t.last_nv with
    | Some (v, body) when v = new_view ->
        (* Re-send the cached NEW-VIEW verbatim for stragglers whose view
           changes arrived after the quorum formed. *)
        broadcast_pbft t body
    | Some _ | None -> (
    match Hashtbl.find_opt t.view_changes new_view with
    | None -> ()
    | Some senders ->
        if Hashtbl.length senders >= t.quorum && new_view >= t.view then begin
          let vcs = Hashtbl.fold (fun _ vc acc -> vc :: acc) senders [] in
          (* Choose, per open sequence number, the prepared value of the
             highest view reported by any view change; ⊥ otherwise. *)
          let best = Hashtbl.create 16 in
          List.iter
            (fun vc ->
              List.iter
                (fun (pc : Msg.prepared_cert) ->
                  match Hashtbl.find_opt best pc.Msg.sn with
                  | Some (v, _) when v >= pc.Msg.view -> ()
                  | _ -> Hashtbl.replace best pc.Msg.sn (pc.Msg.view, pc.Msg.proposal))
                vc.Msg.prepared)
            vcs;
          (* Re-propose EVERY sequence number, merging the certificates
             from the view changes with this node's own state — including
             slots already committed locally.  Peers that committed a slot
             ignore (but re-vote on) its replay; peers that missed the
             original quorum need it to make progress. *)
          let preprepares =
            Array.to_list t.seg.Core.Segment.seq_nrs
            |> List.map (fun sn ->
                   let s = slot t sn in
                   let local =
                     match (s.prepared, s.accepted) with
                     | (Some _ as p), _ -> p
                     | None, Some (v, p) when Rt.is_decided t.rt sn -> Some (v, p)
                     | None, _ -> None
                   in
                   let cand =
                     match (Hashtbl.find_opt best sn, local) with
                     | Some (v1, p1), Some (v2, p2) ->
                         Some (if v2 > v1 then p2 else p1)
                     | Some (_, p), None | None, Some (_, p) -> Some p
                     | None, None -> None
                   in
                   match cand with
                   | Some proposal -> (sn, proposal)
                   | None -> (sn, Proposal.Nil))
          in
          t.view <- new_view;
          let body = Msg.New_view { view = new_view; view_changes = vcs; preprepares } in
          t.last_nv <- Some (new_view, body);
          broadcast_pbft t body;
          arm_vc_timer t
        end)
  end

let handle_view_change t ~src vc =
  if Rt.active t.rt && vc.Msg.new_view > 0 && verify_vc t vc && vc.Msg.vc_signer = src then begin
    let senders =
      match Hashtbl.find_opt t.view_changes vc.Msg.new_view with
      | Some s -> s
      | None ->
          let s = Hashtbl.create 8 in
          Hashtbl.replace t.view_changes vc.Msg.new_view s;
          s
    in
    if not (Hashtbl.mem senders src) then begin
      Hashtbl.replace senders src vc;
      (* Join the view change once f+1 nodes demand it (we may not have
         timed out ourselves yet). *)
      let f = (t.n - 1) / 3 in
      if Hashtbl.length senders > f && vc.Msg.new_view > t.highest_vc_sent then
        start_view_change t vc.Msg.new_view;
      maybe_become_leader t vc.Msg.new_view
    end
  end

(* --- SB instance ---------------------------------------------------- *)

let start t =
  Rt.start t.rt;
  arm_vc_timer t;
  Rt.arm_recovery t.rt;
  if t.seg.Core.Segment.leader = t.ctx.Core.Orderer_intf.node then propose_all t

let on_message t ~src msg =
  match msg with
  | Proto.Message.Pbft { Msg.instance; body } -> (
      match body with
      | Msg.Preprepare { view; sn; proposal } ->
          (* Only the primary of the view may propose. *)
          if src = primary t view && view = t.view then
            accept_preprepare t ~view ~sn proposal
      | Msg.Prepare { view; sn; digest } when Core.Segment.contains_sn t.seg sn ->
          let s = slot t sn in
          if Votes.add s.prepares ~view ~node:src digest then try_commit t s
      | Msg.Commit { view; sn; digest } when Core.Segment.contains_sn t.seg sn ->
          let s = slot t sn in
          if Votes.add s.commits ~view ~node:src digest then try_announce t s
      | Msg.View_change vc -> handle_view_change t ~src vc
      | Msg.New_view { view; view_changes; preprepares } ->
          if src = primary t view then process_new_view t ~view ~view_changes ~preprepares
      | Msg.Fill_request { sns } ->
          Rt.answer_fill t.rt ~sns (fun ~sn proposal ->
              (* A decided slot always holds its value as [accepted], in
                 the latest view this replica voted for it. *)
              let view = match (slot t sn).accepted with Some (v, _) -> v | None -> 0 in
              t.ctx.Core.Orderer_intf.send ~dst:src
                (pbft ~instance (Msg.Fill { sn; view; proposal })))
      | Msg.Fill { sn; view; proposal } ->
          if Rt.fill_confirms t.rt ~src ~sn proposal then
            force_commit t (slot t sn) ~view proposal
      | Msg.Prepare _ | Msg.Commit _ -> ())
  | _ -> ()

let factory ctx seg =
  let t = create ctx seg in
  Rt.instance t.rt ~start:(fun () -> start t) ~on_message:(on_message t)
