module Time_ns = Sim.Time_ns
module Engine = Sim.Engine

type spec =
  | Crash of { node : int; at_s : float }
  | Recover of { node : int; at_s : float }
  | Crash_recover of { node : int; at_s : float; down_s : float }
  | Isolate of { node : int; from_s : float; until_s : float }
  | Split of { minority : int list; from_s : float; until_s : float }
  | Drop of { prob : float; from_s : float; until_s : float }
  | Straggle of { node : int; from_s : float; until_s : float }
  | Slow_link of { a : int; b : int; extra : Time_ns.span; from_s : float; until_s : float }
  (* Active-malice window (Byzantine adversary; DESIGN.md §10).  During the
     window the node's outgoing traffic is rewritten by the cluster's
     {!Adversary} proxy while the node itself keeps running honest code. *)
  | Byzantine of { node : int; attack : Adversary.attack; from_s : float; until_s : float }

type t = { name : string; spec : spec list }

let make ~name spec = { name; spec }
let name t = t.name
let spec t = t.spec

(* ------------------------------------------------------------------ *)
(* Introspection *)

(* Every window-based spec must contribute its [until_s] here: [heal_s] is
   the moment the liveness grace period starts counting, and a forgotten
   constructor would start it while the fault is still active.  A unit test
   (test_byzantine.ml) enumerates all constructors against this function so
   adding a spec without extending it fails to compile. *)
let last_event_s = function
  | Crash { at_s; _ } | Recover { at_s; _ } -> at_s
  | Crash_recover { at_s; down_s; _ } -> at_s +. down_s
  | Isolate { until_s; _ }
  | Split { until_s; _ }
  | Drop { until_s; _ }
  | Straggle { until_s; _ }
  | Slow_link { until_s; _ }
  | Byzantine { until_s; _ } ->
      until_s

(* The Byzantine specs, as (node, window); [None] for benign faults. *)
let byzantine_window = function
  | Byzantine { node; from_s; until_s; _ } -> Some (node, from_s, until_s)
  | Crash _ | Recover _ | Crash_recover _ | Isolate _ | Split _ | Drop _ | Straggle _
  | Slow_link _ ->
      None

let has_byzantine t = List.exists (fun s -> Option.is_some (byzantine_window s)) t.spec

let heal_s t = List.fold_left (fun acc e -> Float.max acc (last_event_s e)) 0.0 t.spec

let pp_spec fmt = function
  | Crash { node; at_s } -> Format.fprintf fmt "crash node %d at %gs" node at_s
  | Recover { node; at_s } -> Format.fprintf fmt "recover node %d at %gs" node at_s
  | Crash_recover { node; at_s; down_s } ->
      Format.fprintf fmt "crash node %d at %gs, recover after %gs" node at_s down_s
  | Isolate { node; from_s; until_s } ->
      Format.fprintf fmt "partition node %d away during [%gs, %gs]" node from_s until_s
  | Split { minority; from_s; until_s } ->
      Format.fprintf fmt "split {%s} from the rest during [%gs, %gs]"
        (String.concat "," (List.map string_of_int minority))
        from_s until_s
  | Drop { prob; from_s; until_s } ->
      Format.fprintf fmt "drop messages with p=%g during [%gs, %gs]" prob from_s until_s
  | Straggle { node; from_s; until_s } ->
      Format.fprintf fmt "node %d straggles during [%gs, %gs]" node from_s until_s
  | Slow_link { a; b; extra; from_s; until_s } ->
      Format.fprintf fmt "link %d<->%d +%a during [%gs, %gs]" a b Time_ns.pp extra from_s
        until_s
  | Byzantine { node; attack; from_s; until_s } ->
      let deed =
        match attack with
        | Adversary.Equivocate -> "equivocates"
        | Adversary.Censor { buckets = [] } -> "censors all requests"
        | Adversary.Censor { buckets } ->
            Printf.sprintf "censors buckets {%s}"
              (String.concat "," (List.map string_of_int buckets))
        | Adversary.Corrupt_sig -> "emits unverifiable signatures"
        | Adversary.Replay -> "replays stale messages"
        | Adversary.Bad_checkpoint -> "advertises corrupt checkpoints"
      in
      Format.fprintf fmt "node %d %s during [%gs, %gs]" node deed from_s until_s

let pp fmt t =
  Format.fprintf fmt "@[<v>scenario %S (heals at %gs):@,%a@]" t.name (heal_s t)
    (Format.pp_print_list pp_spec) t.spec

(* ------------------------------------------------------------------ *)
(* Validation *)

let ( let* ) = Result.bind

let validate ?protocol ?(warn = fun (_ : string) -> ()) t ~n =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let in_range node = node >= 0 && node < n in
  let node_ok node = if in_range node then Ok () else fail "node %d out of range [0,%d)" node n in
  let window_ok ~from_s ~until_s =
    if from_s >= 0.0 && until_s > from_s then Ok ()
    else fail "bad window [%g, %g]" from_s until_s
  in
  let check = function
    | Crash { node; at_s } | Recover { node; at_s } ->
        let* () = node_ok node in
        if at_s < 0.0 then fail "negative fault time %g" at_s else Ok ()
    | Crash_recover { node; at_s; down_s } ->
        let* () = node_ok node in
        if at_s < 0.0 || down_s <= 0.0 then fail "crash-recover needs at_s >= 0 and down_s > 0"
        else Ok ()
    | Isolate { node; from_s; until_s } | Straggle { node; from_s; until_s } ->
        let* () = node_ok node in
        window_ok ~from_s ~until_s
    | Split { minority; from_s; until_s } ->
        if minority = [] then fail "empty minority in split"
        else if not (List.for_all in_range minority) then
          fail "split minority contains an out-of-range node"
        else if 2 * List.length minority >= n then
          fail "split minority of %d is not a minority of %d" (List.length minority) n
        else window_ok ~from_s ~until_s
    | Drop { prob; from_s; until_s } ->
        if prob < 0.0 || prob >= 1.0 then fail "drop probability %g outside [0, 1)" prob
        else window_ok ~from_s ~until_s
    | Slow_link { a; b; extra; from_s; until_s } ->
        if not (in_range a && in_range b) then fail "slow-link endpoint out of range"
        else if extra <= 0 then fail "slow-link extra latency must be positive"
        else window_ok ~from_s ~until_s
    | Byzantine { node; attack; from_s; until_s } -> (
        (* buckets_per_leader defaults to 16; the exact bound is re-checked
           against the real config when the batch is cut, so this only
           guards against obviously-nonsense specs. *)
        let num_buckets = 16 * n in
        let* () =
          match attack with
          | Adversary.Censor { buckets }
            when List.exists (fun b -> b < 0 || b >= num_buckets) buckets ->
              fail "censor bucket out of range [0,%d)" num_buckets
          | _ -> Ok ()
        in
        let* () = node_ok node in
        let* () = window_ok ~from_s ~until_s in
        match protocol with
        | Some Core.Config.Raft ->
            fail
              "Byzantine fault on node %d: Raft is a crash-fault-tolerant protocol and makes no \
               guarantees against active malice; Byzantine specs require PBFT or HotStuff"
              node
        | Some Core.Config.PBFT | Some Core.Config.HotStuff | None -> Ok ())
  in
  let* () = List.fold_left (fun ok e -> Result.bind ok (fun () -> check e)) (Ok ()) t.spec in
  (* Cross-spec checks over the Byzantine windows. *)
  let windows = List.filter_map byzantine_window t.spec in
  (* Overlapping windows on the same node compose in unspecified ways (the
     proxy holds one active attack per node); allowed, but flagged. *)
  let rec warn_overlaps = function
    | [] -> ()
    | (node, f0, u0) :: rest ->
        List.iter
          (fun (node', f1, u1) ->
            if node = node' && f0 < u1 && f1 < u0 then
              warn
                (Printf.sprintf
                   "overlapping Byzantine windows on node %d ([%g, %g] and [%g, %g]): the later \
                    activation replaces the earlier attack"
                   node f0 u0 f1 u1))
          rest;
        warn_overlaps rest
  in
  warn_overlaps windows;
  (* At most f nodes may be Byzantine at any instant — beyond that the BFT
     protocols promise nothing and every "violation" the harness would
     report is vacuous. *)
  let f = Proto.Ids.max_faulty ~n in
  let concurrent_at from_s =
    List.filter (fun (_, f1, u1) -> f1 <= from_s && from_s < u1) windows
    |> List.map (fun (node, _, _) -> node)
    |> List.sort_uniq compare |> List.length
  in
  let worst =
    List.fold_left (fun acc (_, from_s, _) -> max acc (concurrent_at from_s)) 0 windows
  in
  if worst > f then
    fail
      "%d nodes are concurrently Byzantine but n=%d only tolerates f=%d; the harness refuses \
       schedules whose safety claims would be vacuous"
      worst n f
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Compilation to simulator events *)

let apply t cluster =
  let engine = Cluster.engine cluster in
  let net = Cluster.network cluster in
  let nodes = Cluster.nodes cluster in
  let at s f = Engine.post_at engine ~at:(Time_ns.of_sec_f s) f in
  (* Partition windows may overlap (several isolated nodes, or an isolate
     inside a split); the network holds a single partition function, so we
     keep the active fault set here and recompute the grouping on every
     boundary.  Isolated nodes sit in singleton groups; an active split's
     minority forms one more group; everyone else is group 0. *)
  let isolated : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let split = ref [] in
  let refresh_partition () =
    if Hashtbl.length isolated = 0 && !split = [] then Sim.Network.set_partition net None
    else
      let minority = !split in
      Sim.Network.set_partition net
        (Some
           (fun id ->
             if Hashtbl.mem isolated id then 2 + id
             else if List.mem id minority then 1
             else 0))
  in
  (* Same single-active-function situation for link-latency spikes. *)
  let slow_links : (int * int, Time_ns.span) Hashtbl.t = Hashtbl.create 4 in
  let refresh_links () =
    if Hashtbl.length slow_links = 0 then Sim.Network.set_link_latency net None
    else
      Sim.Network.set_link_latency net
        (Some
           (fun src dst ->
             match Hashtbl.find_opt slow_links (min src dst, max src dst) with
             | Some extra -> extra
             | None -> 0))
  in
  List.iter
    (function
      | Crash { node; at_s } -> Cluster.crash_at cluster ~node ~at:(Time_ns.of_sec_f at_s)
      | Recover { node; at_s } -> Cluster.recover_at cluster ~node ~at:(Time_ns.of_sec_f at_s)
      | Crash_recover { node; at_s; down_s } ->
          Cluster.crash_at cluster ~node ~at:(Time_ns.of_sec_f at_s);
          Cluster.recover_at cluster ~node ~at:(Time_ns.of_sec_f (at_s +. down_s))
      | Isolate { node; from_s; until_s } ->
          at from_s (fun () ->
              Hashtbl.replace isolated node ();
              refresh_partition ());
          at until_s (fun () ->
              Hashtbl.remove isolated node;
              refresh_partition ())
      | Split { minority; from_s; until_s } ->
          at from_s (fun () ->
              split := minority;
              refresh_partition ());
          at until_s (fun () ->
              split := [];
              refresh_partition ())
      | Drop { prob; from_s; until_s } ->
          at from_s (fun () -> Sim.Network.set_drop_probability net prob);
          at until_s (fun () -> Sim.Network.set_drop_probability net 0.0)
      | Straggle { node; from_s; until_s } ->
          (* Open at 0: set before the run starts, since the node reads the
             flag at its first batch cut and a t=0 event would be one more
             event in the run. *)
          let straggle b () = Core.Node.set_straggler nodes.(node) b in
          if from_s = 0.0 then straggle true () else at from_s (straggle true);
          if until_s < Float.infinity then at until_s (straggle false)
      | Slow_link { a; b; extra; from_s; until_s } ->
          let key = (min a b, max a b) in
          at from_s (fun () ->
              Hashtbl.replace slow_links key extra;
              refresh_links ());
          at until_s (fun () ->
              Hashtbl.remove slow_links key;
              refresh_links ())
      | Byzantine { node; attack; from_s; until_s } ->
          (* Only schedules that get here pay for the adversary proxy: honest
             runs keep the direct send path.  The node is exempt from the
             invariants from the start. *)
          let adv = Cluster.ensure_adversary cluster in
          Cluster.mark_byzantine cluster node;
          at from_s (fun () -> Adversary.set_attack adv ~node (Some attack));
          at until_s (fun () -> Adversary.set_attack adv ~node None))
    t.spec

(* ------------------------------------------------------------------ *)
(* Epoch-end crash time *)

(* Estimated spacing between consecutive proposals of one segment when no
   batch-rate cap applies (HotStuff).  Proposals then pipeline through the
   ordering protocol, leaving roughly one WAN round trip between successive
   batches of a segment; we bound that by twice the topology's largest
   one-way latency, floored by the configured minimum batch timeout.  This
   estimate only positions the injected epoch-end crash — it is not a
   correctness parameter, just "late enough in the epoch to hurt". *)
let uncapped_proposal_interval_estimate (cfg : Core.Config.t) =
  Float.max
    (2.0 *. Time_ns.to_sec_f (Sim.Topology.max_latency ()))
    (Time_ns.to_sec_f cfg.Core.Config.min_batch_timeout)

(* Aim for 80 % through the victim's segment: past the epoch's midpoint
   (so recovery cannot ride on the same epoch change) but safely before the
   estimated last proposal, given the interval estimate's slack. *)
let epoch_end_crash_fraction = 0.8

let epoch_end_s (cfg : Core.Config.t) =
  (* With a fixed batch rate, a node's k-th proposal leaves at
     ~k * interval; without one (HotStuff), fall back on the
     pipeline-spacing estimate above. *)
  let leaders =
    match cfg.Core.Config.leader_policy with
    | Core.Config.Fixed l -> List.length l
    | Core.Config.Simple | Core.Config.Backoff | Core.Config.Blacklist
    | Core.Config.Straggler_aware ->
        cfg.Core.Config.n
  in
  let seg_len = Core.Config.epoch_length cfg ~leaders / leaders in
  match cfg.Core.Config.batch_rate with
  | Some rate -> (float_of_int seg_len -. 0.5) *. (float_of_int leaders /. rate)
  | None ->
      epoch_end_crash_fraction *. float_of_int seg_len *. uncapped_proposal_interval_estimate cfg

(* ------------------------------------------------------------------ *)
(* Liveness bound *)

let fast c =
  {
    c with
    Core.Config.min_epoch_length = 32;
    min_segment_size = 4;
    epoch_change_timeout = Time_ns.sec 4;
    max_batch_timeout = (if c.Core.Config.max_batch_timeout = 0 then 0 else Time_ns.sec 1);
  }

let liveness_grace_s (config : Core.Config.t) =
  (* How long after the last fault heals every submitted request must be
     delivered.  The dominant term is epoch turnover: requests stranded in a
     crashed (or ⊥-filled) leader's buckets can only be re-proposed once the
     next epoch re-assigns those buckets, and an epoch at light load drains
     one empty keep-alive batch per slot every max(batch interval,
     batch timeout, epoch_change_timeout / 2) — NOT at the offered-load
     rate.  Budget two such worst-case epochs (the one in progress when the
     fault heals, plus the one that re-proposes the stragglers) plus a few
     epoch-change timeouts for view changes and state-transfer lag checks. *)
  let ect = Time_ns.to_sec_f config.Core.Config.epoch_change_timeout in
  let n = config.Core.Config.n in
  let interval_s =
    let min_bt = Time_ns.to_sec_f config.Core.Config.min_batch_timeout in
    match config.Core.Config.batch_rate with
    | Some rate -> Float.max min_bt (float_of_int n /. rate)
    | None -> min_bt
  in
  let slot_s =
    if config.Core.Config.max_batch_timeout = 0 then
      (* Zero batch timeout (HotStuff): empty batches cut as soon as the
         pipeline asks, so slots drain at the batch interval. *)
      Float.max interval_s 0.01
    else
      Float.max interval_s
        (Float.max
           (Time_ns.to_sec_f config.Core.Config.max_batch_timeout)
           (ect /. 2.0))
  in
  let epoch_len = Core.Config.epoch_length config ~leaders:n in
  let epoch_s = float_of_int (epoch_len / max 1 n) *. slot_s in
  (4.0 *. ect) +. (2.0 *. epoch_s) +. 10.0

let checked_until t config ~duration_s =
  Time_ns.of_sec_f (Float.max duration_s (heal_s t +. liveness_grace_s config))

(* ------------------------------------------------------------------ *)
(* Named scenarios *)

let bft_f ~n = max 1 ((n - 1) / 3)

let named ~n name =
  let victim = 1 mod n in
  let far = (n - 1 + n) mod n in
  let attack attack = Byzantine { node = victim; attack; from_s = 2.0; until_s = 22.0 } in
  match String.lowercase_ascii name with
  | "crash-recover" ->
      Ok (make ~name [ Crash_recover { node = victim; at_s = 5.0; down_s = 20.0 } ])
  | "partition-heal" -> Ok (make ~name [ Isolate { node = far; from_s = 5.0; until_s = 25.0 } ])
  | "split-brain" ->
      let minority = List.init (min (bft_f ~n) (max 1 ((n - 1) / 2))) (fun i -> (i + 1) mod n) in
      Ok (make ~name [ Split { minority; from_s = 5.0; until_s = 25.0 } ])
  | "lossy" -> Ok (make ~name [ Drop { prob = 0.1; from_s = 2.0; until_s = 22.0 } ])
  | "straggler-window" ->
      Ok (make ~name [ Straggle { node = victim; from_s = 5.0; until_s = 35.0 } ])
  | "slow-link" ->
      Ok
        (make ~name
           [
             Slow_link
               { a = 0; b = victim; extra = Time_ns.ms 200; from_s = 5.0; until_s = 25.0 };
           ])
  (* Active-malice scenarios (BFT protocols only; validation rejects them
     for Raft).  One attacker, one window; the paired-defense acceptance
     tests (test_byzantine.ml) run exactly these. *)
  | "byz-equivocate" -> Ok (make ~name [ attack Adversary.Equivocate ])
  | "byz-censor" -> Ok (make ~name [ attack (Adversary.Censor { buckets = [] }) ])
  | "byz-corrupt-sig" -> Ok (make ~name [ attack Adversary.Corrupt_sig ])
  | "byz-replay" -> Ok (make ~name [ attack Adversary.Replay ])
  | "byz-bad-checkpoint" ->
      (* The corrupt-checkpoint attack only bites when someone consumes
         checkpoints: pair it with a crash-recovery so the recovering node
         must state-transfer while the attacker (one of the f+1 peers it
         asks) serves poisoned certificates. *)
      Ok
        (make ~name
           [
             Byzantine
               { node = victim; attack = Adversary.Bad_checkpoint; from_s = 2.0; until_s = 40.0 };
             Crash_recover { node = far; at_s = 8.0; down_s = 12.0 };
           ])
  | other -> Error (Printf.sprintf "unknown fault scenario %S" other)

let scenario_names =
  [
    "crash-recover"; "partition-heal"; "split-brain"; "lossy"; "straggler-window"; "slow-link";
    "chaos"; "byz-equivocate"; "byz-censor"; "byz-corrupt-sig"; "byz-replay";
    "byz-bad-checkpoint";
  ]

(* ------------------------------------------------------------------ *)
(* Randomized chaos schedules *)

let random ~seed ~n ~duration_s =
  let rng = Sim.Rng.create ~seed in
  (* Sequential non-overlapping fault windows: at most one fault is active
     at any time, so a quorum of connected correct nodes always exists and
     the liveness invariant is a theorem, not a hope.  Windows stop at 60 %
    of the run so the heal-time grace fits inside it comfortably. *)
  let d = duration_s in
  let events = ref [] in
  let now = ref (0.05 *. d) in
  let horizon = 0.6 *. d in
  while !now < horizon do
    let w = Sim.Rng.uniform_range rng ~lo:(0.08 *. d) ~hi:(0.18 *. d) in
    let until_s = Float.min (!now +. w) horizon in
    let victim = Sim.Rng.int rng n in
    let e =
      match Sim.Rng.int rng 5 with
      | 0 -> Crash_recover { node = victim; at_s = !now; down_s = until_s -. !now }
      | 1 -> Isolate { node = victim; from_s = !now; until_s }
      | 2 ->
          Drop
            {
              prob = Sim.Rng.uniform_range rng ~lo:0.02 ~hi:0.1;
              from_s = !now;
              until_s;
            }
      | 3 -> Straggle { node = victim; from_s = !now; until_s }
      | _ ->
          let other = (victim + 1 + Sim.Rng.int rng (max 1 (n - 1))) mod n in
          Slow_link
            {
              a = victim;
              b = (if other = victim then (victim + 1) mod n else other);
              extra = Time_ns.ms (50 + Sim.Rng.int rng 250);
              from_s = !now;
              until_s;
            }
    in
    events := e :: !events;
    now := until_s +. Sim.Rng.uniform_range rng ~lo:(0.02 *. d) ~hi:(0.08 *. d)
  done;
  make ~name:(Printf.sprintf "chaos-%Ld" seed) (List.rev !events)

let random_byzantine ~seed ~n ~duration_s =
  let rng = Sim.Rng.create ~seed in
  (* One attacker, one window — at most one Byzantine node at a time keeps
     the run inside the f-bound for every n >= 4.  The window opens early
     and closes at half the run so epochs after it can demonstrate
     recovery. *)
  let d = duration_s in
  let from_s = Sim.Rng.uniform_range rng ~lo:(0.08 *. d) ~hi:(0.2 *. d) in
  let until_s = Sim.Rng.uniform_range rng ~lo:(0.4 *. d) ~hi:(0.5 *. d) in
  let victim = Sim.Rng.int rng n in
  let attack attack = Byzantine { node = victim; attack; from_s; until_s } in
  let events =
    match Sim.Rng.int rng 5 with
    | 0 -> [ attack Adversary.Equivocate ]
    | 1 ->
        let buckets =
          if Sim.Rng.bool rng then []
          else [ Sim.Rng.int rng (16 * n) ]
        in
        [ attack (Adversary.Censor { buckets }) ]
    | 2 -> [ attack Adversary.Corrupt_sig ]
    | 3 -> [ attack Adversary.Replay ]
    | _ ->
        (* Make the corrupted checkpoints matter: a different node
           crash-recovers inside the attack window and must state-transfer
           past the attacker's poisoned certificates. *)
        let other = (victim + 1 + Sim.Rng.int rng (n - 1)) mod n in
        [
          attack Adversary.Bad_checkpoint;
          Crash_recover
            { node = other; at_s = from_s +. 0.1 *. d; down_s = 0.15 *. d };
        ]
  in
  make ~name:(Printf.sprintf "byz-%Ld" seed) events
