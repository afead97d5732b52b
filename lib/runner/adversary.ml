(* The Byzantine adversary proxy: a man-in-the-middle on each node's raw
   send path.

   The proxy owns NO honest-path code: Cluster only consults it when a
   schedule configured it (the [adversary] field stays [None] otherwise, and
   the send closure reduces to the pre-existing direct [Sim.Network.send]).
   When active for a source node, [route] rewrites that node's outgoing
   traffic according to the attack — the node itself keeps running the
   honest protocol code, which is exactly the point: the defenses under test
   are at the *receivers*, and the attacker's local state evolves the way a
   real equivocator's would (it believes its own original messages).

   All attacks are deterministic functions of the message stream: no RNG, so
   a Byzantine run is exactly reproducible from its scenario. *)

module Msg = Proto.Message

type attack =
  | Equivocate
  | Censor of { buckets : int list }
  | Corrupt_sig
  | Replay
  | Bad_checkpoint

(* Per-source-node adversary state. *)
type node_state = {
  mutable active : attack option;
  (* Replay attack: a bounded ring of this node's past outgoing protocol
     messages, and past batched client requests, re-injected verbatim while
     the window is open. *)
  ring : (int * Msg.t) option array;
  mutable ring_next : int;  (* next write slot *)
  mutable replay_cursor : int;  (* next slot to replay from *)
  req_ring : Proto.Request.t option array;
  mutable req_next : int;
  mutable req_cursor : int;
}

type t = {
  n : int;
  config : Core.Config.t;
  states : node_state array;
}

let ring_capacity = 64

let create ~n ~config =
  {
    n;
    config;
    states =
      Array.init n (fun _ ->
          {
            active = None;
            ring = Array.make ring_capacity None;
            ring_next = 0;
            replay_cursor = 0;
            req_ring = Array.make ring_capacity None;
            req_next = 0;
            req_cursor = 0;
          });
  }

let set_attack t ~node attack =
  let st = t.states.(node) in
  st.active <- attack

let active t ~node = t.states.(node).active

(* ------------------------------------------------------------------ *)
(* Equivocation: disjoint receiver subsets, neither of which can reach a
   quorum together with the attacker.

   Receivers are ranked by their position among the non-attacker ids (a pure
   function of (src, dst) — no state).  The first q-2 receivers get the
   original proposal, the next q-2 get a conflicting one, the rest get
   nothing.  Counting the attacker's own vote, each side holds at most
   (q-2) + 1 = q-1 < q matching votes, so neither conflicting value can
   prepare or commit: the slot stalls, the view change ⊥-fills it, and the
   epoch-end ⊥ evidence points at the attacker's segment. *)

let rank ~src ~dst = if dst > src then dst - 1 else dst

type side = Original | Conflicting | Silence

let equivocation_side t ~src ~dst =
  let q = Proto.Ids.quorum ~n:t.n in
  let width = max 1 (q - 2) in
  let r = rank ~src ~dst in
  if r < width then Original else if r < 2 * width then Conflicting else Silence

(* The conflicting value: drop the first request of the batch when it has
   one (a strictly valid sub-batch — this side tests pure quorum
   intersection), or substitute a fabricated request when the batch is empty
   (the attacker signs it with its own key, not the client's, so receivers
   additionally exercise the Reject_malicious ingress path). *)
let fabricated_request ~attacker ~sn =
  Proto.Request.sign
    (Iss_crypto.Signature.genkey ~id:attacker)
    (Proto.Request.make ~client:999_983 ~ts:(sn + 1) ~payload_size:64 ~signed:false
       ~submitted_at:Sim.Time_ns.zero ())

let conflicting_batch ~attacker ~sn (batch : Proto.Batch.t) =
  let reqs = Proto.Batch.requests batch in
  if Array.length reqs > 0 then
    Proto.Batch.make (Array.sub reqs 1 (Array.length reqs - 1))
  else Proto.Batch.make [| fabricated_request ~attacker ~sn |]

let equivocate_proposal ~attacker ~sn = function
  | Proto.Proposal.Nil -> Proto.Proposal.Nil
  | Proto.Proposal.Batch b -> Proto.Proposal.Batch (conflicting_batch ~attacker ~sn b)

(* ------------------------------------------------------------------ *)
(* Censorship: filter chosen buckets (or, with [buckets = []], every
   request) out of the leader's outgoing proposals.  The attacker's local
   copy keeps the full batch — real censors believe their own lies — so its
   accepted digest diverges from what followers commit and it later repairs
   itself through the Fill/state-transfer path. *)

let censored t ~buckets (r : Proto.Request.t) =
  buckets = []
  ||
  let b =
    Proto.Request.bucket_of_id ~num_buckets:(Core.Config.num_buckets t.config) r.Proto.Request.id
  in
  List.mem b buckets

let censor_batch t ~buckets (batch : Proto.Batch.t) =
  let keep =
    Array.of_list
      (List.filter
         (fun r -> not (censored t ~buckets r))
         (Array.to_list (Proto.Batch.requests batch)))
  in
  Proto.Batch.make keep

let censor_proposal t ~buckets = function
  | Proto.Proposal.Nil -> Proto.Proposal.Nil
  | Proto.Proposal.Batch b -> Proto.Proposal.Batch (censor_batch t ~buckets b)

(* ------------------------------------------------------------------ *)
(* Bad checkpoints: corrupt the state root and re-sign the corrupted
   material with the attacker's own (valid) key.  Individual signature
   checks pass — the attacker is allowed to sign whatever it likes — but the
   vote can never join the honest quorum's matching set, and a state-
   transfer certificate rebuilt this way fails quorum verification at the
   receiver. *)

let corrupt_root root =
  Iss_crypto.Hash.of_string ("corrupt:" ^ Iss_crypto.Hash.to_hex root)

let corrupt_checkpoint ~signer ~epoch ~max_sn ~root ~req_count ~policy =
  let root = corrupt_root root in
  let material = Msg.checkpoint_material ~epoch ~max_sn ~root ~req_count ~policy in
  let kp = Iss_crypto.Signature.genkey ~id:signer in
  let sig_ = Iss_crypto.Signature.sign kp material in
  Msg.Checkpoint_msg { epoch; max_sn; root; req_count; policy; signer; sig_ }

let corrupt_cert ~signer (cert : Msg.checkpoint_cert) =
  let cc_root = corrupt_root cert.Msg.cc_root in
  let material =
    Msg.checkpoint_material ~epoch:cert.Msg.cc_epoch ~max_sn:cert.Msg.cc_max_sn ~root:cc_root
      ~req_count:cert.Msg.cc_req_count ~policy:cert.Msg.cc_policy
  in
  let kp = Iss_crypto.Signature.genkey ~id:signer in
  (* The attacker re-signs the corrupted material itself; the quorum's
     signatures it forwards no longer match it, so the receiver's
     per-signer verification strips them below the checkpoint quorum. *)
  let cc_sigs =
    (signer, Iss_crypto.Signature.sign kp material)
    :: List.filter (fun (s, _) -> s <> signer) cert.Msg.cc_sigs
  in
  { cert with Msg.cc_root; cc_sigs }

(* ------------------------------------------------------------------ *)
(* Replay: record, then re-inject.  Only protocol payloads that carry state
   (proposals, votes, checkpoints) are recorded; while the window is open
   every genuine send piggybacks one stale protocol message and one stale
   client request to the same destination. *)

let record_worthy = function
  | Msg.Pbft _ | Msg.Hotstuff _ | Msg.Checkpoint_msg _ -> true
  | _ -> false

let record st ~dst msg =
  if record_worthy msg then begin
    st.ring.(st.ring_next) <- Some (dst, msg);
    st.ring_next <- (st.ring_next + 1) mod ring_capacity
  end;
  Msg.iter_proposed_batches
    (fun b ->
      if Proto.Batch.length b > 0 then begin
        st.req_ring.(st.req_next) <- Some (Proto.Batch.requests b).(0);
        st.req_next <- (st.req_next + 1) mod ring_capacity
      end)
    msg

let next_replay st ~dst msg =
  let stale = ref [] in
  (* One stale protocol message per send, cycling through the ring;
     redirected to the current destination so every replica gets its share
     of duplicates. *)
  (match st.ring.(st.replay_cursor) with
  | Some (_, old) when old != msg -> stale := (dst, old) :: !stale
  | _ -> ());
  st.replay_cursor <- (st.replay_cursor + 1) mod ring_capacity;
  (* And one previously-batched client request, retransmitted as if the
     client had sent it again. *)
  (match st.req_ring.(st.req_cursor) with
  | Some r -> stale := (dst, Msg.Request_msg r) :: !stale
  | None -> ());
  st.req_cursor <- (st.req_cursor + 1) mod ring_capacity;
  !stale

(* ------------------------------------------------------------------ *)
(* The routing function: called for every (src, dst, msg) the cluster's
   send closure would transmit; returns the (dst, msg) list to transmit
   instead. *)

let route t ~src ~dst msg =
  let st = t.states.(src) in
  match st.active with
  | None -> [ (dst, msg) ]
  | Some Equivocate -> (
      match msg with
      | Msg.Pbft
          ({ Proto.Pbft_msg.body = Proto.Pbft_msg.Preprepare { view; sn; proposal }; _ } as m)
        -> (
          match equivocation_side t ~src ~dst with
          | Original -> [ (dst, msg) ]
          | Silence -> []
          | Conflicting ->
              let proposal = equivocate_proposal ~attacker:src ~sn proposal in
              [
                ( dst,
                  Msg.Pbft
                    { m with Proto.Pbft_msg.body = Proto.Pbft_msg.Preprepare { view; sn; proposal } } );
              ])
      | Msg.Hotstuff
          ({ Proto.Hotstuff_msg.body = Proto.Hotstuff_msg.Proposal_msg node; _ } as m)
        when node.Proto.Hotstuff_msg.proposal <> Proto.Proposal.Nil -> (
          match equivocation_side t ~src ~dst with
          | Original -> [ (dst, msg) ]
          | Silence -> []
          | Conflicting ->
              let node =
                {
                  node with
                  Proto.Hotstuff_msg.proposal =
                    equivocate_proposal ~attacker:src ~sn:node.Proto.Hotstuff_msg.sn
                      node.Proto.Hotstuff_msg.proposal;
                }
              in
              [
                ( dst,
                  Msg.Hotstuff
                    { m with Proto.Hotstuff_msg.body = Proto.Hotstuff_msg.Proposal_msg node } );
              ])
      | _ -> [ (dst, msg) ])
  | Some (Censor { buckets }) -> (
      match msg with
      | Msg.Pbft ({ Proto.Pbft_msg.body = Proto.Pbft_msg.Preprepare { view; sn; proposal }; _ } as m)
        ->
          let proposal = censor_proposal t ~buckets proposal in
          [
            ( dst,
              Msg.Pbft
                { m with Proto.Pbft_msg.body = Proto.Pbft_msg.Preprepare { view; sn; proposal } } );
          ]
      | Msg.Hotstuff ({ Proto.Hotstuff_msg.body = Proto.Hotstuff_msg.Proposal_msg node; _ } as m)
        ->
          let node =
            {
              node with
              Proto.Hotstuff_msg.proposal =
                censor_proposal t ~buckets node.Proto.Hotstuff_msg.proposal;
            }
          in
          [
            ( dst,
              Msg.Hotstuff
                { m with Proto.Hotstuff_msg.body = Proto.Hotstuff_msg.Proposal_msg node } );
          ]
      | _ -> [ (dst, msg) ])
  | Some Corrupt_sig ->
      (* Every outgoing control message fails authentication at the
         receiver. *)
      [ (dst, Msg.Garbled msg) ]
  | Some Replay ->
      record st ~dst msg;
      (dst, msg) :: next_replay st ~dst msg
  | Some Bad_checkpoint -> (
      match msg with
      | Msg.Checkpoint_msg { epoch; max_sn; root; req_count; policy; signer; _ } ->
          [ (dst, corrupt_checkpoint ~signer ~epoch ~max_sn ~root ~req_count ~policy) ]
      | Msg.State_reply { entries; cert } ->
          [ (dst, Msg.State_reply { entries; cert = corrupt_cert ~signer:src cert }) ]
      | _ -> [ (dst, msg) ])
