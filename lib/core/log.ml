type delivery = {
  request : Proto.Request.t;
  request_sn : int;
  batch_sn : int;
}

(* An epoch's checkpoint votes, by signer (whose first vote sticks), with
   the material signed: it encodes the whole certificate but the sigs. *)
type tally =
  | Idle  (* no votes kept: none yet, or pruning or a jump dropped them *)
  | Open of (Proto.Ids.node_id, string * Iss_crypto.Signature.signature) Hashtbl.t
  | Closed  (* a quorum formed: later votes are ignored *)

(* One epoch: its range (first sn, length 0 until known), tally and certificate. *)
type epoch = {
  mutable range : int * int;
  mutable tally : tally;
  mutable cert : Proto.Message.checkpoint_cert option;
}

type t = {
  entries : (int, Proto.Proposal.t) Hashtbl.t;
  mutable first_undelivered : int;
  mutable total_delivered : int;
  mutable pruned_below : int;  (* lowest sn still retained; all below pruned *)
  epochs : (int, epoch) Hashtbl.t;
  mutable newest_stable : int;  (* highest epoch with a certificate, -1 if none *)
}

let create () =
  {
    entries = Hashtbl.create 1024;
    first_undelivered = 0;
    total_delivered = 0;
    pruned_below = 0;
    epochs = Hashtbl.create 16;
    newest_stable = -1;
  }

let commit t ~sn proposal =
  if sn < t.pruned_below then
    (* A late (re)commit of a position GC already pruned: the entry was
       delivered and discarded; re-inserting it would corrupt the
       committed-ahead accounting and slowly resurrect the pruned prefix. *)
    false
  else
  match Hashtbl.find_opt t.entries sn with
  | Some existing ->
      if Iss_crypto.Hash.equal (Proto.Proposal.digest existing) (Proto.Proposal.digest proposal)
      then false
      else
        invalid_arg
          (Printf.sprintf "Log.commit: conflicting proposals at sn %d (SB agreement violation)" sn)
  | None ->
      Hashtbl.replace t.entries sn proposal;
      true

let get t ~sn = Hashtbl.find_opt t.entries sn

let is_committed t ~sn = Hashtbl.mem t.entries sn

let first_undelivered t = t.first_undelivered

let total_delivered t = t.total_delivered

(* Delivery requires a contiguous committed prefix, so every retained
   position below the frontier — there are [first_undelivered -
   pruned_below] of them — is in [entries]; the difference counts positions
   committed ahead of the frontier. *)
let committed_ahead t =
  Hashtbl.length t.entries - (t.first_undelivered - t.pruned_below)

let pruned_below t = t.pruned_below

let prune t ~below_sn =
  (* Only delivered positions may go: entries at or past the frontier are
     still needed to deliver the contiguous prefix. *)
  let cut = min below_sn t.first_undelivered in
  let removed = ref 0 in
  for sn = t.pruned_below to cut - 1 do
    if Hashtbl.mem t.entries sn then begin
      Hashtbl.remove t.entries sn;
      incr removed
    end
  done;
  if cut > t.pruned_below then t.pruned_below <- cut;
  !removed

let jump t ~to_sn ~total_delivered =
  if to_sn > t.first_undelivered then begin
    (* Discard everything below the checkpoint (delivered or not — the
       quorum certificate supersedes it); entries committed ahead of the
       checkpoint stay and deliver normally once the frontier resumes. *)
    for sn = t.pruned_below to to_sn - 1 do
      Hashtbl.remove t.entries sn
    done;
    t.pruned_below <- to_sn;
    t.first_undelivered <- to_sn;
    t.total_delivered <- total_delivered
  end

let deliver_ready t ~on_batch =
  let delivered = ref 0 in
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.entries t.first_undelivered with
    | None -> continue := false
    | Some proposal ->
        (match proposal with
        | Proto.Proposal.Nil -> ()
        | Proto.Proposal.Batch b ->
            let count = Proto.Batch.length b in
            if count > 0 then begin
              on_batch ~sn:t.first_undelivered ~first_request_sn:t.total_delivered b;
              t.total_delivered <- t.total_delivered + count;
              delivered := !delivered + count
            end);
        t.first_undelivered <- t.first_undelivered + 1
  done;
  !delivered

let range_complete t ~from_sn ~to_sn =
  let rec go sn = sn > to_sn || (Hashtbl.mem t.entries sn && go (sn + 1)) in
  go from_sn

let nil_entries t ~from_sn ~to_sn =
  let out = ref [] in
  for sn = to_sn downto from_sn do
    match Hashtbl.find_opt t.entries sn with
    | Some Proto.Proposal.Nil -> out := sn :: !out
    | Some (Proto.Proposal.Batch _) | None -> ()
  done;
  !out

let batch_digests t ~from_sn ~to_sn =
  Array.init
    (to_sn - from_sn + 1)
    (fun i ->
      match Hashtbl.find_opt t.entries (from_sn + i) with
      | Some p -> Proto.Proposal.digest p
      | None -> invalid_arg "Log.batch_digests: gap in range")

(* ------------------------------------------------------------------ *)
(* Checkpoints and state transfer (§3.5) *)

(* Epochs of delivered entries kept below the newest stable checkpoint: what
   a lagging peer can still fetch.  A peer further behind jumps instead. *)
let retention_epochs = 4

let quorum (config : Config.t) =
  match config.Config.protocol with
  | Config.Raft -> Proto.Ids.majority ~n:config.Config.n
  | Config.PBFT | Config.HotStuff -> Proto.Ids.quorum ~n:config.Config.n

let epoch t e =
  match Hashtbl.find_opt t.epochs e with
  | Some r -> r
  | None ->
      let r = { range = (0, 0); tally = Idle; cert = None } in
      Hashtbl.replace t.epochs e r;
      r

let set_range t ~epoch:e ~first_sn ~length = (epoch t e).range <- (first_sn, length)

let stabilize t (cert : Proto.Message.checkpoint_cert) =
  (epoch t cert.cc_epoch).cert <- Some cert;
  t.newest_stable <- max t.newest_stable cert.cc_epoch

let drop_tallies t ~through =
  Hashtbl.iter (fun e r -> if e <= through then r.tally <- Idle) t.epochs

let cert_of t e = match Hashtbl.find_opt t.epochs e with Some r -> r.cert | None -> None
let is_stable t ~epoch = Option.is_some (cert_of t epoch)
let newest_stable t = t.newest_stable
let last_stable_checkpoint t = cert_of t t.newest_stable
let signers (c : Proto.Message.checkpoint_cert) = List.sort_uniq compare (List.map fst c.cc_sigs)

let checkpoint_vote t ~keypair ~signer ~epoch ~from_sn ~to_sn ~req_count ~policy =
  let root = Iss_crypto.Merkle.root (batch_digests t ~from_sn ~to_sn) in
  let material = Proto.Message.checkpoint_material ~epoch ~max_sn:to_sn ~root ~req_count ~policy in
  let sig_ = Iss_crypto.Signature.sign keypair material in
  Proto.Message.Checkpoint_msg { epoch; max_sn = to_sn; root; req_count; policy; signer; sig_ }

let add_vote t ~quorum ~epoch:e ~max_sn ~root ~req_count ~policy ~signer ~sig_ =
  let material = Proto.Message.checkpoint_material ~epoch:e ~max_sn ~root ~req_count ~policy in
  Iss_crypto.Signature.verify (Iss_crypto.Signature.public_of_id signer) material sig_
  &&
  let r = epoch t e in
  (match r.tally with Idle -> r.tally <- Open (Hashtbl.create 8) | Open _ | Closed -> ());
  match r.tally with
  | Open votes when not (Hashtbl.mem votes signer) ->
      Hashtbl.replace votes signer (material, sig_);
      Hashtbl.fold (fun _ (m, _) n -> if m = material then n + 1 else n) votes 0 >= quorum
      && begin
           let matching =
             Hashtbl.fold
               (fun s (m, sg) acc -> if m = material then (s, sg) :: acc else acc)
               votes []
           in
           (* Signers sorted by node id: the certificate travels (state
              transfer), and no choice downstream may inherit this node's
              vote-arrival order. *)
           r.tally <- Closed;
           stabilize t
             {
               cc_epoch = e;
               cc_max_sn = max_sn;
               cc_root = root;
               cc_req_count = req_count;
               cc_policy = policy;
               cc_sigs = List.sort (fun (a, _) (b, _) -> compare a b) matching;
             };
           true
         end
  | Open _ | Idle | Closed -> false

let prune_stable t ~below_sn =
  (* [below_sn] is the caller's current epoch, whose range it still reads. *)
  let rec newest_at_or_below e =
    if e < 0 then None else match cert_of t e with None -> newest_at_or_below (e - 1) | c -> c
  in
  match newest_at_or_below (t.newest_stable - retention_epochs) with
  | Some cert ->
      let cut_sn = min (cert.cc_max_sn + 1) below_sn in
      if t.pruned_below < min cut_sn t.first_undelivered then begin
        ignore (prune t ~below_sn:cut_sn);
        drop_tallies t ~through:cert.cc_epoch
      end
  | None -> ()

let state_replies t ~from_sn =
  (* Epochs descending, consed, so the replies go out ascending.  The
     snapshot, if [from_sn] is pruned, is the oldest certificate whose
     successor is retained (lowest max_sn, then epoch): the requester loses
     the least history, and the entry replies connect to it. *)
  let replies = ref [] and jump = ref None in
  for e = t.newest_stable downto 0 do
    match Hashtbl.find_opt t.epochs e with
    | Some { cert = Some cert; range = first_sn, length; _ } ->
        (if from_sn < t.pruned_below && cert.cc_max_sn + 1 >= t.pruned_below then
           match !jump with
           | Some (best : Proto.Message.checkpoint_cert) when best.cc_max_sn < cert.cc_max_sn -> ()
           | Some _ | None -> jump := Some cert);
        let last = first_sn + length - 1 in
        if length > 0 && last >= from_sn && range_complete t ~from_sn:first_sn ~to_sn:last then
          let entry i = (first_sn + i, Hashtbl.find t.entries (first_sn + i)) in
          let entries = List.init length entry in
          replies := Proto.Message.State_reply { entries; cert } :: !replies
    | Some _ | None -> ()
  done;
  match !jump with
  | Some cert -> Proto.Message.State_reply { entries = []; cert } :: !replies
  | None -> !replies

type reply_verdict = Refused | Jumped | Verified of (int * Proto.Proposal.t) list

let check_state_reply t ~quorum ~entries ~(cert : Proto.Message.checkpoint_cert) =
  let material =
    Proto.Message.checkpoint_material ~epoch:cert.cc_epoch ~max_sn:cert.cc_max_sn
      ~root:cert.cc_root ~req_count:cert.cc_req_count ~policy:cert.cc_policy
  in
  let valid (node, s) =
    Iss_crypto.Signature.verify (Iss_crypto.Signature.public_of_id node) material s
  in
  let valid_signers = signers { cert with cc_sigs = List.filter valid cert.cc_sigs } in
  if List.length valid_signers < quorum then Refused
  else
    match List.sort (fun (a, _) (b, _) -> compare a b) entries with
    | [] ->
        (* A snapshot: adopt the certificate without the history behind it,
           fast-forwarding the frontier and Eq. (2) numbering. *)
        let to_sn = cert.cc_max_sn + 1 in
        if to_sn > t.first_undelivered then begin
          jump t ~to_sn ~total_delivered:cert.cc_req_count;
          stabilize t cert;
          drop_tallies t ~through:cert.cc_epoch;
          Jumped
        end
        else Refused
    | (first, _) :: _ as sorted ->
        let rec contiguous sn = function
          | [] -> sn = cert.cc_max_sn + 1
          | (s, _) :: rest -> s = sn && contiguous (sn + 1) rest
        in
        let digests = Array.of_list (List.map (fun (_, p) -> Proto.Proposal.digest p) sorted) in
        let root = Iss_crypto.Merkle.root digests in
        if contiguous first sorted && Iss_crypto.Hash.equal root cert.cc_root then begin
          (* Adopt the certificate, so this node can serve it onwards. *)
          if not (is_stable t ~epoch:cert.cc_epoch) then begin
            stabilize t cert;
            set_range t ~epoch:cert.cc_epoch ~first_sn:first ~length:(List.length sorted)
          end;
          Verified sorted
        end
        else Refused
