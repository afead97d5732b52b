(* The invariant checker (DESIGN.md §6, §9).

   Consumes the raw per-node delivery stream plus the submitted workload and
   checks the observed behaviour against the reference model of an idealized
   atomic broadcast:

   - agreement / total order: every node that delivers sequence number [sn]
     delivers the same batch with the same first request sequence number,
     and each node's delivered [sn]s are strictly increasing;
   - no fabrication: every delivered request was submitted;
   - exactly-once: no node delivers a request twice, and no request is
     ordered at two different log positions;
   - no delivered-then-shed: a node never sheds a request it has already
     delivered;
   - Eq. (2) numbering: request sequence numbers chain exactly across the
     observed log positions, starting at 0.  (Positions holding ⊥ or an
     empty keep-alive batch deliver nothing and are never observed; they
     carry zero requests, so they are transparent to the chain.)
   - completeness: every submitted request is ordered and reaches its reply
     quorum, and each client's delivered timestamps form the full
     contiguous range it submitted;
   - watermark window closure: a request with timestamp [t] can only be
     ordered after timestamp [t - window] of the same client (§3.7's
     client watermark windows, checked globally post hoc).

   [Runner.Cluster] owns the one instance of a run and feeds it from its
   delivery, shed, submission and give-up paths. *)

type entry = {
  e_digest : Iss_crypto.Hash.t;
  e_frs : int;  (* first request sequence number (Eq. 2 cumulative count) *)
  e_len : int;
  mutable e_nodes : int;  (* how many nodes delivered this sn *)
}

type stats = {
  sns : int;  (* distinct log positions delivered somewhere *)
  requests : int;  (* distinct requests ordered *)
  quorum_requests : int;  (* requests whose position reached the reply quorum *)
  per_node_delivered : int array;  (* requests delivered by each node *)
  shed : int;  (* flow-control sheds observed, all correct nodes *)
  gave_up : int;  (* requests whose client exhausted its retry budget *)
}

type t = {
  n : int;
  reply_quorum : int;
  window : int;
  submitted : (int, Proto.Request.t) Hashtbl.t;  (* id_key -> request *)
  global : (int, entry) Hashtbl.t;  (* sn -> first-observed content *)
  req_sn : (int, int) Hashtbl.t;  (* id_key -> sn of global appearance *)
  last_sn : int array;  (* per node, -1 before any delivery *)
  last_frs_end : int array;  (* per node: frs + len of the last delivery *)
  per_node_seen : (int, unit) Hashtbl.t array;
  delivered_counts : int array;
  byzantine : bool array;  (* invariants quantify over correct nodes only *)
  shed_counts : int array;  (* flow-control sheds per node *)
  gave_up : (int, unit) Hashtbl.t;  (* id_key of abandoned requests *)
  mutable max_sn : int;
  mutable violation : string option;
}

let create ~n ~reply_quorum ~window =
  {
    n;
    reply_quorum;
    window;
    submitted = Hashtbl.create 4096;
    global = Hashtbl.create 4096;
    req_sn = Hashtbl.create 4096;
    last_sn = Array.make n (-1);
    last_frs_end = Array.make n 0;
    per_node_seen = Array.init n (fun _ -> Hashtbl.create 4096);
    delivered_counts = Array.make n 0;
    byzantine = Array.make n false;
    shed_counts = Array.make n 0;
    gave_up = Hashtbl.create 64;
    max_sn = -1;
    violation = None;
  }

let set_byzantine t node = t.byzantine.(node) <- true

let fail t fmt = Printf.ksprintf (fun msg -> if t.violation = None then t.violation <- Some msg) fmt

let note_submitted t (r : Proto.Request.t) =
  Hashtbl.replace t.submitted (Proto.Request.id_key r.Proto.Request.id) r

let note_shed t ~node (r : Proto.Request.t) =
  if not t.byzantine.(node) then begin
    t.shed_counts.(node) <- t.shed_counts.(node) + 1;
    (* A node that already delivered this request holds it in its dedup
       state: a later copy must be absorbed as a duplicate, never counted
       against the bucket and shed. *)
    if Hashtbl.mem t.per_node_seen.(node) (Proto.Request.id_key r.Proto.Request.id) then
      fail t "node %d shed request (client %d, ts %d) it had already delivered" node
        r.id.Proto.Request.client r.id.Proto.Request.ts
  end

let note_gave_up t (r : Proto.Request.t) =
  Hashtbl.replace t.gave_up (Proto.Request.id_key r.Proto.Request.id) ()

let note_delivery t ~node ~sn ~first_request_sn batch =
  if t.violation = None then
    if t.byzantine.(node) then begin
      (* A Byzantine node's local log is outside the specification: keep its
         progress counters (they feed the fingerprint, so instrumented and
         bare runs still compare bit-exactly) but quantify every invariant
         over correct nodes only, and never let its deliveries seed the
         first-observed baseline for a position. *)
      let len = Proto.Batch.length batch in
      if sn > t.last_sn.(node) then t.last_sn.(node) <- sn;
      t.last_frs_end.(node) <- first_request_sn + len;
      t.delivered_counts.(node) <- t.delivered_counts.(node) + len
    end
    else begin
    let len = Proto.Batch.length batch in
    (* Per-node total order: strictly increasing delivery positions.  (Gaps
       are legal: a checkpoint jump skips positions covered by the adopted
       snapshot.) *)
    if sn <= t.last_sn.(node) then
      fail t "node %d delivered sn %d after sn %d (out of order)" node sn t.last_sn.(node);
    (* Eq. (2) per-node continuity across adjacent positions. *)
    if sn = t.last_sn.(node) + 1 && t.last_sn.(node) >= 0
       && first_request_sn <> t.last_frs_end.(node)
    then
      fail t "node %d: sn %d numbers requests from %d, expected %d (Eq. 2 discontinuity)"
        node sn first_request_sn t.last_frs_end.(node);
    t.last_sn.(node) <- sn;
    t.last_frs_end.(node) <- first_request_sn + len;
    t.delivered_counts.(node) <- t.delivered_counts.(node) + len;
    if sn > t.max_sn then t.max_sn <- sn;
    (* Cross-node agreement at this position. *)
    let digest = Proto.Proposal.digest (Proto.Proposal.Batch batch) in
    (match Hashtbl.find_opt t.global sn with
    | Some e ->
        e.e_nodes <- e.e_nodes + 1;
        if not (Iss_crypto.Hash.equal e.e_digest digest) then
          fail t "node %d delivered a different batch at sn %d (%s vs %s)" node sn
            (Iss_crypto.Hash.short digest) (Iss_crypto.Hash.short e.e_digest);
        if e.e_frs <> first_request_sn then
          fail t "node %d numbered sn %d from %d, another node used %d" node sn
            first_request_sn e.e_frs
    | None ->
        Hashtbl.replace t.global sn { e_digest = digest; e_frs = first_request_sn; e_len = len; e_nodes = 1 };
        (* First global appearance: record where each request is ordered. *)
        Proto.Batch.iter
          (fun (r : Proto.Request.t) ->
            let key = Proto.Request.id_key r.Proto.Request.id in
            match Hashtbl.find_opt t.req_sn key with
            | Some sn0 ->
                fail t "request (client %d, ts %d) ordered at both sn %d and sn %d"
                  r.id.Proto.Request.client r.id.Proto.Request.ts sn0 sn
            | None -> Hashtbl.replace t.req_sn key sn)
          batch);
    (* No fabrication + per-node exactly-once. *)
    let seen = t.per_node_seen.(node) in
    Proto.Batch.iter
      (fun (r : Proto.Request.t) ->
        let key = Proto.Request.id_key r.Proto.Request.id in
        if not (Hashtbl.mem t.submitted key) then
          fail t "node %d delivered request (client %d, ts %d) that was never submitted" node
            r.id.Proto.Request.client r.id.Proto.Request.ts;
        if Hashtbl.mem seen key then
          fail t "node %d delivered request (client %d, ts %d) twice" node
            r.id.Proto.Request.client r.id.Proto.Request.ts;
        Hashtbl.replace seen key ())
      batch
  end

(* ------------------------------------------------------------------ *)
(* End-of-run structural checks *)

let check_log_structure t =
  (* Gaps between observed positions are legal — ⊥ entries and empty
     keep-alive batches deliver nothing, so they never reach the observer —
     but they carry zero requests, so Eq. (2) numbering must chain exactly
     across the observed positions, starting at 0. *)
  if t.max_sn >= 0 then begin
    let sns = Hashtbl.fold (fun sn _ acc -> sn :: acc) t.global [] in
    let sns = List.sort compare sns in
    let expected = ref 0 in
    List.iter
      (fun sn ->
        let e = Hashtbl.find t.global sn in
        if e.e_frs <> !expected then
          fail t "sn %d numbers requests from %d, expected %d (Eq. 2 discontinuity)" sn e.e_frs
            !expected;
        expected := e.e_frs + e.e_len)
      sns
  end

(* Every submitted request must reach its reply quorum or be given up.  The
   report lists the first missing requests (in table order) so a failing
   chaos run can be traced without a re-run. *)
let check_liveness t =
  let unordered = ref 0 and unquorate = ref 0 and first = ref [] in
  let note r counter =
    incr counter;
    if !unordered + !unquorate <= 10 then first := r :: !first
  in
  Hashtbl.iter
    (fun key (r : Proto.Request.t) ->
      if not (Hashtbl.mem t.gave_up key) then
        match Hashtbl.find_opt t.req_sn key with
        | None -> note r unordered
        | Some sn -> (
            match Hashtbl.find_opt t.global sn with
            | Some e when e.e_nodes >= t.reply_quorum -> ()
            | _ -> note r unquorate))
    t.submitted;
  let missing = !unordered + !unquorate in
  if missing > 0 then begin
    let b = Buffer.create 256 in
    Printf.bprintf b
      "%d of %d submitted requests never reached their reply quorum of %d (%d never ordered, \
       %d ordered but short of the quorum; %d explicitly gave up).  First missing requests:"
      missing (Hashtbl.length t.submitted) t.reply_quorum !unordered !unquorate
      (Hashtbl.length t.gave_up);
    List.iter
      (fun (r : Proto.Request.t) ->
        Printf.bprintf b "\n  client %d ts %d (submitted at t=%.3fs)" r.id.Proto.Request.client
          r.id.Proto.Request.ts
          (Sim.Time_ns.to_sec_f r.Proto.Request.submitted_at))
      (List.rev !first);
    if missing > 10 then Buffer.add_string b "\n  ...";
    fail t "%s" (Buffer.contents b)
  end

let check_clients t =
  (* Per-client view: delivered timestamps must form the exact contiguous
     range the client submitted, and ordering positions must respect the
     watermark window — ts [k] can only be ordered after ts [k - window]. *)
  let clients : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let max_ts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key (r : Proto.Request.t) ->
      let c = r.id.Proto.Request.client and ts = r.id.Proto.Request.ts in
      (match Hashtbl.find_opt max_ts c with
      | Some m when m >= ts -> ()
      | _ -> Hashtbl.replace max_ts c ts);
      match Hashtbl.find_opt t.req_sn key with
      | None -> ()  (* already reported by check_liveness *)
      | Some sn ->
          let tbl =
            match Hashtbl.find_opt clients c with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 256 in
                Hashtbl.replace clients c tbl;
                tbl
          in
          Hashtbl.replace tbl ts sn)
    t.submitted;
  Hashtbl.iter
    (fun c tbl ->
      let m = try Hashtbl.find max_ts c with Not_found -> -1 in
      for ts = 0 to m do
        match Hashtbl.find_opt tbl ts with
        | None ->
            (* A hole is legal exactly where the client gave the request up:
               the explicit give-up terminal state of the overload run. *)
            if
              t.violation = None
              && not (Hashtbl.mem t.gave_up (Proto.Request.id_key { Proto.Request.client = c; ts }))
            then
              fail t "client %d: ts %d missing from the delivered range [0, %d]" c ts m
        | Some sn ->
            if ts >= t.window then begin
              match Hashtbl.find_opt tbl (ts - t.window) with
              | Some sn' when sn' < sn -> ()
              | Some sn' ->
                  fail t
                    "client %d: ts %d ordered at sn %d but ts %d (one window below) only at sn \
                     %d — watermark window violated"
                    c ts sn (ts - t.window) sn'
              | None -> ()
            end
      done)
    clients

let finalize t =
  check_log_structure t;
  check_liveness t;
  check_clients t;
  match t.violation with
  | Some msg -> Error msg
  | None ->
      let quorum_requests =
        Hashtbl.fold
          (fun _ e acc -> if e.e_nodes >= t.reply_quorum then acc + e.e_len else acc)
          t.global 0
      in
      Ok
        {
          sns = Hashtbl.length t.global;
          requests = Hashtbl.length t.req_sn;
          quorum_requests;
          per_node_delivered = Array.copy t.delivered_counts;
          shed = Array.fold_left ( + ) 0 t.shed_counts;
          gave_up = Hashtbl.length t.gave_up;
        }

let violation t = t.violation

(* A digest of everything the checker observed, for determinism and
   instrumented-vs-bare bit-identity comparisons: the full ordered log
   (digest + numbering per position) plus each node's delivery progress. *)
let fingerprint t =
  let buf = Buffer.create 8192 in
  for sn = 0 to t.max_sn do
    match Hashtbl.find_opt t.global sn with
    | Some e ->
        Buffer.add_string buf (Iss_crypto.Hash.short e.e_digest);
        Buffer.add_string buf (Printf.sprintf ":%d:%d:%d;" e.e_frs e.e_len e.e_nodes)
    | None -> Buffer.add_string buf "hole;"
  done;
  Array.iteri
    (fun node last ->
      Buffer.add_string buf
        (Printf.sprintf "n%d=%d@%d;" node t.delivered_counts.(node) last))
    t.last_sn;
  (* Overload accounting enters the digest only when it fired: scenarios
     without flow control keep their pre-flow-control fingerprints. *)
  let shed_total = Array.fold_left ( + ) 0 t.shed_counts in
  if shed_total > 0 || Hashtbl.length t.gave_up > 0 then begin
    Buffer.add_string buf (Printf.sprintf "gaveup=%d;" (Hashtbl.length t.gave_up));
    Array.iteri
      (fun node shed -> Buffer.add_string buf (Printf.sprintf "shed%d=%d;" node shed))
      t.shed_counts
  end;
  Iss_crypto.Sha256.digest_hex (Buffer.contents buf)
