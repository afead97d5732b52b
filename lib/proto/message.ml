type checkpoint_cert = {
  cc_epoch : int;
  cc_max_sn : int;
  cc_root : Iss_crypto.Hash.t;
  cc_req_count : int;
      (** requests delivered through [cc_max_sn] (Eq. (2) cumulative count) —
          lets a node that adopts the checkpoint without replaying history
          resume per-request sequence numbering where the quorum left it *)
  cc_policy : string;
      (** leader-policy snapshot ({!Core.Leader_policy.snapshot}) as of the
          end of [cc_epoch] — identical at every correct node, so it is part
          of the signed material and a catching-up node can restore it *)
  cc_sigs : (Ids.node_id * Iss_crypto.Signature.signature) list;
}

type t =
  | Request_msg of Request.t
  | Reply of { req_id : Request.id; sn : int; replier : Ids.node_id }
  | Busy of { req_id : Request.id; retry_after : Sim.Time_ns.span; shed : bool }
  | Bucket_update of { epoch : int; bucket_leaders : Ids.node_id array }
  | Checkpoint_msg of {
      epoch : int;
      max_sn : int;
      root : Iss_crypto.Hash.t;
      req_count : int;
      policy : string;
      signer : Ids.node_id;
      sig_ : Iss_crypto.Signature.signature;
    }
  | State_request of { from_sn : int }
  | State_reply of { entries : (int * Proposal.t) list; cert : checkpoint_cert }
  | Pbft of Pbft_msg.t
  | Hotstuff of Hotstuff_msg.t
  | Raft of Raft_msg.t
  | Mir_epoch_change of { epoch : int; primary : Ids.node_id }
  | Garbled of t

let checkpoint_material ~epoch ~max_sn ~root ~req_count ~policy =
  Printf.sprintf "checkpoint:%d:%d:%s:%d:%s" epoch max_sn (Iss_crypto.Hash.to_hex root)
    req_count policy

let iter_proposed_batches f = function
  | Pbft { Pbft_msg.body = Pbft_msg.Preprepare { proposal = Proposal.Batch b; _ }; _ }
  | Hotstuff
      { Hotstuff_msg.body = Hotstuff_msg.Proposal_msg { proposal = Proposal.Batch b; _ }; _ } ->
      f b
  | Raft { Raft_msg.body = Raft_msg.Append_entries { entries; _ }; _ } ->
      List.iter
        (fun (e : Raft_msg.entry) ->
          match e.proposal with Proposal.Batch b -> f b | Proposal.Nil -> ())
        entries
  | Pbft _ | Hotstuff _ | Raft _ | Request_msg _ | Reply _ | Busy _ | Bucket_update _
  | Checkpoint_msg _ | State_request _ | State_reply _ | Mir_epoch_change _ | Garbled _ ->
      ()

let cert_size cert =
  32 + Iss_crypto.Hash.size + String.length cert.cc_policy
  + (List.length cert.cc_sigs * (8 + Iss_crypto.Signature.wire_size))

let rec wire_size = function
  | Request_msg r -> Request.wire_size r
  | Reply _ -> 32
  | Busy _ -> 32
  | Bucket_update { bucket_leaders; _ } -> 16 + (Array.length bucket_leaders * 4)
  | Checkpoint_msg { policy; _ } ->
      32 + Iss_crypto.Hash.size + String.length policy + Iss_crypto.Signature.wire_size
  | State_request _ -> 16
  | State_reply { entries; cert } ->
      cert_size cert
      + List.fold_left (fun acc (_, p) -> acc + 8 + Proposal.wire_size p) 0 entries
  | Pbft m -> Pbft_msg.wire_size m
  | Hotstuff m -> Hotstuff_msg.wire_size m
  | Raft m -> Raft_msg.wire_size m
  | Mir_epoch_change _ -> 24
  | Garbled inner -> wire_size inner

let rec pp fmt = function
  | Request_msg r -> Format.fprintf fmt "request%a" Request.pp_id r.id
  | Reply { req_id; sn; replier } ->
      Format.fprintf fmt "reply%a@sn%d from n%d" Request.pp_id req_id sn replier
  | Busy { req_id; retry_after; shed } ->
      Format.fprintf fmt "busy%a retry-after %a%s" Request.pp_id req_id Sim.Time_ns.pp
        retry_after
        (if shed then " (shed)" else "")
  | Bucket_update { epoch; _ } -> Format.fprintf fmt "bucket-update(e%d)" epoch
  | Checkpoint_msg { epoch; max_sn; signer; _ } ->
      Format.fprintf fmt "checkpoint(e%d,sn%d) from n%d" epoch max_sn signer
  | State_request { from_sn } -> Format.fprintf fmt "state-request(sn%d..)" from_sn
  | State_reply { entries = []; cert } ->
      Format.fprintf fmt "state-snapshot(e%d,sn%d)" cert.cc_epoch cert.cc_max_sn
  | State_reply { entries; _ } -> Format.fprintf fmt "state-reply(%d entries)" (List.length entries)
  | Pbft m -> Pbft_msg.pp fmt m
  | Hotstuff m -> Hotstuff_msg.pp fmt m
  | Raft m -> Raft_msg.pp fmt m
  | Mir_epoch_change { epoch; primary } ->
      Format.fprintf fmt "mir-epoch-change(e%d,primary n%d)" epoch primary
  | Garbled inner -> Format.fprintf fmt "garbled(%a)" pp inner
