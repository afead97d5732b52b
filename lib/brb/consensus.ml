module Time_ns = Sim.Time_ns
module Engine = Sim.Engine

type value = string option

let digest_of = function
  | None -> Iss_crypto.Hash.of_string "bc:bot"
  | Some v -> Iss_crypto.Hash.of_string ("bc:val:" ^ v)

type t = {
  n : int;
  quorum : int;
  me : Proto.Ids.node_id;
  instance : int;
  send : dst:Proto.Ids.node_id -> Brb_msg.t -> unit;
  acceptable : value -> bool;
  decide_cb : value -> unit;
  view_timeout : Time_ns.span;
  mutable estimate : value option;  (* my proposal, once set *)
  mutable lock : value option;  (* first value I voted for *)
  mutable view : int;
  mutable voted_view : int;  (* highest view I voted in *)
  votes : (int * Proto.Ids.node_id, Iss_crypto.Hash.t * value) Hashtbl.t;
  decide_votes : (Proto.Ids.node_id, Iss_crypto.Hash.t * value) Hashtbl.t;
  mutable pending_proposal : (int * value) option;  (* held until evaluable *)
  mutable output : value option;
  timer : Engine.Timer.t;  (* view timeout *)
  mutable active : bool;
}

let create ~engine ~n ~me ~instance ~send ~acceptable ~decide
    ?(view_timeout = Time_ns.sec 2) () =
  {
    n;
    quorum = Proto.Ids.quorum ~n;
    me;
    instance;
    send;
    acceptable;
    decide_cb = decide;
    view_timeout;
    estimate = None;
    lock = None;
    view = 0;
    voted_view = -1;
    votes = Hashtbl.create 32;
    decide_votes = Hashtbl.create 8;
    pending_proposal = None;
    output = None;
    timer = Engine.Timer.create engine;
    active = false;
  }

let decided t = t.output

let bcast t msg =
  for dst = 0 to t.n - 1 do
    t.send ~dst msg
  done

let coordinator t view = view mod t.n

let conclude t v =
  if t.output = None then begin
    t.output <- Some v;
    Engine.Timer.cancel t.timer;
    bcast t (Brb_msg.Bc_decide { instance = t.instance; view = t.view; value = v });
    t.decide_cb v
  end

let check_quorum t view =
  if t.output = None then begin
    (* Count matching votes for this view. *)
    let counts = Hashtbl.create 4 in
    Hashtbl.iter
      (fun (v, _) (digest, value) ->
        if v = view then begin
          let key = Iss_crypto.Hash.raw digest in
          let cur, _ = Option.value ~default:(0, None) (Hashtbl.find_opt counts key) in
          Hashtbl.replace counts key (cur + 1, Some value)
        end)
      t.votes;
    Hashtbl.iter
      (fun _ (count, value) ->
        match value with
        | Some v when count >= t.quorum -> conclude t v
        | Some _ | None -> ())
      counts
  end

let vote t ~view value =
  if t.voted_view < view && t.output = None then begin
    t.voted_view <- view;
    if t.lock = None then t.lock <- Some value;
    bcast t (Brb_msg.Bc_vote { instance = t.instance; view; digest = digest_of value });
    (* Record my own full vote so quorum counting knows the value. *)
    Hashtbl.replace t.votes ((view, t.me)) (digest_of value, value);
    check_quorum t view
  end

let would_vote t value =
  match t.lock with
  | Some locked -> locked = value
  | None -> t.acceptable value

let try_evaluate_pending t =
  match t.pending_proposal with
  | Some (view, value) when view = t.view && t.output = None ->
      if would_vote t value then begin
        t.pending_proposal <- None;
        vote t ~view value
      end
  | Some _ | None -> ()

let rec arm_timer t =
  if t.active && t.output = None then
    Engine.Timer.arm t.timer ~delay:(t.view_timeout * (1 lsl min t.view 16)) (fun () ->
        if t.active && t.output = None then begin
          t.view <- t.view + 1;
          t.pending_proposal <- None;
          maybe_coordinate t;
          arm_timer t
        end)
  else Engine.Timer.cancel t.timer

and maybe_coordinate t =
  if coordinator t t.view = t.me && t.output = None then begin
    let proposal =
      match t.lock with
      | Some locked -> Some locked
      | None -> t.estimate
    in
    match proposal with
    | Some value ->
        bcast t (Brb_msg.Bc_propose { instance = t.instance; view = t.view; value })
    | None -> ()  (* nothing to propose yet *)
  end

let propose t value =
  if t.estimate = None then begin
    t.estimate <- Some value;
    t.active <- true;
    maybe_coordinate t;
    try_evaluate_pending t;
    if not (Engine.Timer.armed t.timer) then arm_timer t
  end

let on_message t ~src msg =
  match msg with
  | Brb_msg.Bc_propose { instance; view; value } when instance = t.instance ->
      if src = coordinator t view && view >= t.view && t.output = None then begin
        if view > t.view then begin
          t.view <- view;
          arm_timer t
        end;
        if would_vote t value then vote t ~view value
        else t.pending_proposal <- Some (view, value)
        (* Held: e.g. the BRB value has not arrived here yet; re-evaluated
           when [acceptable] can change (the construction calls [propose]
           or pokes us). *)
      end
  | Brb_msg.Bc_vote { instance; view; digest } when instance = t.instance ->
      if not (Hashtbl.mem t.votes (view, src)) then begin
        (* We only learn the digest from others; the value arrives with the
           coordinator proposal or a decide.  Track the digest and try to
           resolve it against known values. *)
        let value =
          if Iss_crypto.Hash.equal digest (digest_of None) then Some None
          else
            match t.estimate with
            | Some (Some v) when Iss_crypto.Hash.equal digest (digest_of (Some v)) ->
                Some (Some v)
            | _ -> (
                match t.lock with
                | Some l when Iss_crypto.Hash.equal digest (digest_of l) -> Some l
                | _ -> None)
        in
        (match value with
        | Some value ->
            Hashtbl.replace t.votes ((view, src)) (digest, value);
            check_quorum t view
        | None ->
            (* Unresolvable digest: count it anyway, value recovered when a
               matching local value appears. *)
            Hashtbl.replace t.votes ((view, src)) (digest, None);
            check_quorum t view)
      end
  | Brb_msg.Bc_decide { instance; value; _ } when instance = t.instance ->
      if not (Hashtbl.mem t.decide_votes src) then begin
        Hashtbl.replace t.decide_votes src (digest_of value, value);
        let matching =
          Hashtbl.fold
            (fun _ (d, _) acc ->
              if Iss_crypto.Hash.equal d (digest_of value) then acc + 1 else acc)
            t.decide_votes 0
        in
        (* f+1 matching decisions contain a correct one. *)
        if matching >= Proto.Ids.max_faulty ~n:t.n + 1 then conclude t value
      end
  | _ -> ()

let stop t =
  t.active <- false;
  Engine.Timer.cancel t.timer
