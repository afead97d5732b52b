type state =
  | Simple
  | Backoff of { penalty : int array }
  | Blacklist of { last_failure : int array; f : int }
  | Fixed of Proto.Ids.node_id array
  | Straggler_aware of { last_failure : int array; f : int }
      (** like Blacklist, but straggle evidence also counts as failure *)

type t = { n : int; state : state }

type leader_stats = {
  ls_leader : Proto.Ids.node_id;
  ls_batches : int;
  ls_requests : int;
}

(* BACKOFF: a leader's first failure bans it for this many epochs, and
   every good epoch takes [backoff_decrease] off its ban. *)
let backoff_ban_period = 4
let backoff_decrease = 1

let create (config : Config.t) =
  let n = config.Config.n in
  let state =
    match config.Config.leader_policy with
    | Config.Simple -> Simple
    | Config.Backoff ->
        Backoff { penalty = Array.make n 0 }
    | Config.Blacklist -> Blacklist { last_failure = Array.make n (-1); f = Config.max_faulty config }
    | Config.Fixed leaders -> Fixed (Array.of_list (List.sort_uniq compare leaders))
    | Config.Straggler_aware ->
        Straggler_aware { last_failure = Array.make n (-1); f = Config.max_faulty config }
  in
  { n; state }

(* Deterministic straggle rule: a leader straggles when the epoch's busiest
   leader shipped a substantial number of requests (so the system was under
   real load) while this leader shipped less than an eighth of that despite
   committing batches (so it was alive, just withholding). *)
let stragglers_of stats =
  let busiest = List.fold_left (fun acc s -> max acc s.ls_requests) 0 stats in
  if busiest < 256 then []
  else
    List.filter_map
      (fun s ->
        if s.ls_batches > 0 && s.ls_requests * 8 < busiest then Some s.ls_leader else None)
      stats

let epoch_finished t ~epoch ~failed ?(stats = []) () =
  match t.state with
  | Simple | Fixed _ -> ()
  | Blacklist { last_failure; _ } ->
      List.iter
        (fun (leader, sn) -> if sn > last_failure.(leader) then last_failure.(leader) <- sn)
        failed
  | Straggler_aware { last_failure; _ } ->
      (* Recency is tracked in epochs here: ⊥ evidence and straggle evidence
         land in the same scale. *)
      List.iter
        (fun (leader, _) -> if epoch > last_failure.(leader) then last_failure.(leader) <- epoch)
        failed;
      List.iter
        (fun leader -> if epoch > last_failure.(leader) then last_failure.(leader) <- epoch)
        (stragglers_of stats)
  | Backoff { penalty } ->
      let failed_now = Array.make t.n false in
      List.iter (fun (leader, _) -> failed_now.(leader) <- true) failed;
      for i = 0 to t.n - 1 do
        if failed_now.(i) then
          (* Double an active ban; start a fresh one otherwise. *)
          penalty.(i) <- (if penalty.(i) > 0 then (penalty.(i) * 2) - 1 else backoff_ban_period)
        else if penalty.(i) > 0 then penalty.(i) <- max 0 (penalty.(i) - backoff_decrease)
      done

let leaders t ~epoch:_ =
  match t.state with
  | Simple -> Array.init t.n (fun i -> i)
  | Fixed leaders -> Array.copy leaders
  | Backoff { penalty; _ } ->
      let out = ref [] in
      for i = t.n - 1 downto 0 do
        if penalty.(i) <= 0 then out := i :: !out
      done;
      Array.of_list !out
  | Blacklist { last_failure; f } | Straggler_aware { last_failure; f } ->
      (* Ban the <= f nodes with the highest (most recent) failures. *)
      let offenders =
        List.init t.n (fun i -> i)
        |> List.filter (fun i -> last_failure.(i) >= 0)
        |> List.sort (fun a b -> compare last_failure.(b) last_failure.(a))
      in
      let banned = Array.make t.n false in
      List.iteri (fun rank i -> if rank < f then banned.(i) <- true) offenders;
      let out = ref [] in
      for i = t.n - 1 downto 0 do
        if not banned.(i) then out := i :: !out
      done;
      Array.of_list !out

(* Canonical textual snapshot of the mutable policy state.  Deterministic
   from the log at every correct node, so checkpoint signatures can cover it
   and a node adopting a checkpoint without replaying history can [restore]
   it.  Stateless policies snapshot to their kind alone. *)
let ints_to_csv a = String.concat "," (Array.to_list (Array.map string_of_int a))

let csv_to_ints s =
  if s = "" then [||]
  else Array.of_list (List.map int_of_string (String.split_on_char ',' s))

let snapshot t =
  match t.state with
  | Simple -> "simple"
  | Fixed leaders -> "fixed:" ^ ints_to_csv leaders
  | Backoff { penalty; _ } -> "backoff:" ^ ints_to_csv penalty
  | Blacklist { last_failure; _ } -> "blacklist:" ^ ints_to_csv last_failure
  | Straggler_aware { last_failure; _ } -> "straggler:" ^ ints_to_csv last_failure

let restore t s =
  let fail () = invalid_arg (Printf.sprintf "Leader_policy.restore: snapshot %S does not match the configured policy" s) in
  let payload prefix =
    let p = prefix ^ ":" in
    let pl = String.length p in
    if String.length s >= pl && String.sub s 0 pl = p then
      String.sub s pl (String.length s - pl)
    else fail ()
  in
  let restore_into dst prefix =
    let src = try csv_to_ints (payload prefix) with _ -> fail () in
    if Array.length src <> Array.length dst then fail ();
    Array.blit src 0 dst 0 (Array.length src)
  in
  match t.state with
  | Simple -> if s <> "simple" then fail ()
  | Fixed _ -> ignore (payload "fixed")  (* immutable; kind check only *)
  | Backoff { penalty; _ } -> restore_into penalty "backoff"
  | Blacklist { last_failure; _ } -> restore_into last_failure "blacklist"
  | Straggler_aware { last_failure; _ } -> restore_into last_failure "straggler"

let is_banned t node =
  match t.state with
  | Simple -> false
  | Fixed leaders -> not (Array.exists (fun l -> l = node) leaders)
  | Backoff { penalty; _ } -> penalty.(node) > 0
  | Blacklist _ | Straggler_aware _ ->
      not (Array.exists (fun l -> l = node) (leaders t ~epoch:0))
