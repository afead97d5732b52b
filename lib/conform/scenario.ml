(* A conformance scenario: everything needed to reproduce one fuzzed run —
   cluster size, workload shape, and the fault/jitter schedule.  Scenarios
   are plain data with an exact JSON round-trip so a failing seed can be
   committed to the corpus and replayed bit-identically later. *)

module Rng = Sim.Rng
module Faults = Runner.Faults
module Adversary = Runner.Adversary
module J = Obs.Jsonx

type overload =
  | Flash_crowd of { at_s : float; factor : float; len_s : float; drop_oldest : bool }
  | Hot_bucket of { skew : float; drop_oldest : bool }

type t = {
  seed : int64;  (* drives the cluster RNG and (via derivation) every draw below *)
  n : int;
  rate : float;  (* offered load, requests/s *)
  num_clients : int;  (* small pools stress the per-client watermark window *)
  duration_s : float;  (* submission window; the run extends to heal + grace *)
  faults : Faults.spec list;
  overload : overload option;
      (* flow control on, tiny buckets, an overload workload shape and a
         finite client retry budget — exercises shed/give-up conformance *)
}

let name t = Printf.sprintf "seed-%Ld" t.seed

(* Quantize a float draw to milliseconds: scenario times survive the JSON
   round-trip textually unchanged and shrink steps stay tidy. *)
let ms_quant x = Float.round (x *. 1000.0) /. 1000.0

(* ------------------------------------------------------------------ *)
(* The fuzzer.  Every structural choice comes from a generator derived from
   the scenario seed, so [of_seed] is a pure function of [seed]. *)

let of_seed seed =
  let rng = Rng.create ~seed in
  let n = Rng.pick rng [| 4; 4; 5; 7 |] in
  let num_clients = 2 + Rng.int rng 7 in
  let rate = float_of_int (60 + (20 * Rng.int rng 12)) in
  let duration_s = float_of_int (4 + Rng.int rng 6) in
  (* Fault schedule: a quarter of the seeds run fault-free (pure ordering /
     watermark / GC conformance), a quarter draw an active-malice window
     (BFT protocols only — the harness skips Raft for those), and the rest
     draw a sequential schedule of crash-recoveries, partitions, loss and
     straggler windows. *)
  let schedule =
    match Rng.int rng 4 with
    | 0 -> []
    | 1 -> Faults.spec (Faults.random_byzantine ~seed:(Rng.next_int64 rng) ~n ~duration_s)
    | _ -> Faults.spec (Faults.random ~seed:(Rng.next_int64 rng) ~n ~duration_s)
  in
  (* Latency jitter: an extra slow-link window on one random link, on top of
     whatever the schedule does (slow links never threaten liveness, so
     overlap is fine). *)
  let jitter =
    if Rng.int rng 3 = 0 then
      let a = Rng.int rng n in
      let b = (a + 1 + Rng.int rng (n - 1)) mod n in
      let from_s = ms_quant (Rng.float rng (0.8 *. duration_s)) in
      let until_s = ms_quant (from_s +. 0.5 +. Rng.float rng duration_s) in
      let extra = Sim.Time_ns.ms (20 + Rng.int rng 180) in
      [ Faults.Slow_link { a; b; extra; from_s; until_s } ]
    else []
  in
  (* Overload window: a fifth of the seeds run with flow control on (tiny
     buckets, so shedding actually fires at conformance rates) under a
     saturating workload shape.  Drawn last: pre-overload seeds keep their
     exact scenarios. *)
  let overload =
    if Rng.int rng 5 = 0 then begin
      let drop_oldest = Rng.int rng 2 = 1 in
      if Rng.int rng 2 = 0 then
        Some
          (Flash_crowd
             {
               at_s = ms_quant (0.2 *. duration_s +. Rng.float rng (0.3 *. duration_s));
               factor = float_of_int (6 + Rng.int rng 7);
               len_s = ms_quant (1.0 +. Rng.float rng 2.0);
               drop_oldest;
             })
      else
        Some (Hot_bucket { skew = 0.9 +. (0.1 *. float_of_int (Rng.int rng 8)); drop_oldest })
    end
    else None
  in
  { seed; n; rate; num_clients; duration_s; faults = schedule @ jitter; overload }

let validate_overload = function
  | None -> Ok ()
  | Some (Flash_crowd { at_s; factor; len_s; _ }) ->
      if at_s < 0.0 then Error "overload: at_s must be non-negative"
      else if factor <= 1.0 then Error "overload: factor must exceed 1"
      else if len_s <= 0.0 then Error "overload: len_s must be positive"
      else Ok ()
  | Some (Hot_bucket { skew; _ }) ->
      if skew <= 0.0 then Error "overload: skew must be positive" else Ok ()

let validate ?protocol t =
  if t.n < 4 then Error "n must be at least 4"
  else if t.rate <= 0.0 then Error "rate must be positive"
  else if t.num_clients < 1 then Error "num_clients must be positive"
  else if t.duration_s <= 0.0 then Error "duration_s must be positive"
  else
    match validate_overload t.overload with
    | Error _ as e -> e
    | Ok () -> Faults.validate ?protocol (Faults.make ~name:(name t) t.faults) ~n:t.n

let has_byzantine t = Faults.has_byzantine (Faults.make ~name:(name t) t.faults)

(* ------------------------------------------------------------------ *)
(* JSON codec (repro files).  Spans are encoded as integer nanoseconds;
   floats print via Jsonx's round-tripping formatter. *)

let spec_to_json (s : Faults.spec) =
  let obj kind fields = J.Obj (("kind", J.String kind) :: fields) in
  let ints l = J.List (List.map (fun i -> J.Int i) l) in
  let window from_s until_s = [ ("from_s", J.Float from_s); ("until_s", J.Float until_s) ] in
  match s with
  | Faults.Crash { node; at_s } ->
      obj "crash" [ ("node", J.Int node); ("at_s", J.Float at_s) ]
  | Faults.Recover { node; at_s } ->
      obj "recover" [ ("node", J.Int node); ("at_s", J.Float at_s) ]
  | Faults.Crash_recover { node; at_s; down_s } ->
      obj "crash_recover"
        [ ("node", J.Int node); ("at_s", J.Float at_s); ("down_s", J.Float down_s) ]
  | Faults.Isolate { node; from_s; until_s } ->
      obj "isolate" (("node", J.Int node) :: window from_s until_s)
  | Faults.Split { minority; from_s; until_s } ->
      obj "split" (("minority", ints minority) :: window from_s until_s)
  | Faults.Drop { prob; from_s; until_s } ->
      obj "drop" (("prob", J.Float prob) :: window from_s until_s)
  | Faults.Straggle { node; from_s; until_s } ->
      obj "straggle" (("node", J.Int node) :: window from_s until_s)
  | Faults.Slow_link { a; b; extra; from_s; until_s } ->
      obj "slow_link"
        ([ ("a", J.Int a); ("b", J.Int b); ("extra_ns", J.Int extra) ] @ window from_s until_s)
  | Faults.Byzantine { node; attack; from_s; until_s } ->
      let kind, payload =
        match attack with
        | Adversary.Equivocate -> ("equivocate", [])
        | Adversary.Censor { buckets } -> ("censor", [ ("buckets", ints buckets) ])
        | Adversary.Corrupt_sig -> ("corrupt_sig", [])
        | Adversary.Replay -> ("replay", [])
        | Adversary.Bad_checkpoint -> ("bad_checkpoint", [])
      in
      obj kind ((("node", J.Int node) :: payload) @ window from_s until_s)

let field name json =
  match J.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let ( let* ) r f = Result.bind r f

let int_field name json =
  let* v = field name json in
  match v with J.Int i -> Ok i | _ -> Error (Printf.sprintf "field %S: expected int" name)

let float_field name json =
  let* v = field name json in
  match J.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S: expected number" name)

let ints_field name json =
  let* v = field name json in
  match J.to_list v with
  | None -> Error (Printf.sprintf "field %S: expected list" name)
  | Some items ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          match item with
          | J.Int i -> Ok (i :: acc)
          | _ -> Error (Printf.sprintf "field %S: expected ints" name))
        items (Ok [])

let spec_of_json json =
  let window () =
    let* from_s = float_field "from_s" json in
    let* until_s = float_field "until_s" json in
    Ok (from_s, until_s)
  in
  let node_window make =
    let* node = int_field "node" json in
    let* from_s, until_s = window () in
    Ok (make node from_s until_s)
  in
  let byzantine attack =
    node_window (fun node from_s until_s -> Faults.Byzantine { node; attack; from_s; until_s })
  in
  let* kind = field "kind" json in
  match kind with
  | J.String "crash" ->
      let* node = int_field "node" json in
      let* at_s = float_field "at_s" json in
      Ok (Faults.Crash { node; at_s })
  | J.String "recover" ->
      let* node = int_field "node" json in
      let* at_s = float_field "at_s" json in
      Ok (Faults.Recover { node; at_s })
  | J.String "crash_recover" ->
      let* node = int_field "node" json in
      let* at_s = float_field "at_s" json in
      let* down_s = float_field "down_s" json in
      Ok (Faults.Crash_recover { node; at_s; down_s })
  | J.String "isolate" ->
      node_window (fun node from_s until_s -> Faults.Isolate { node; from_s; until_s })
  | J.String "split" ->
      let* minority = ints_field "minority" json in
      let* from_s, until_s = window () in
      Ok (Faults.Split { minority; from_s; until_s })
  | J.String "drop" ->
      let* prob = float_field "prob" json in
      let* from_s, until_s = window () in
      Ok (Faults.Drop { prob; from_s; until_s })
  | J.String "straggle" ->
      node_window (fun node from_s until_s -> Faults.Straggle { node; from_s; until_s })
  | J.String "slow_link" ->
      let* a = int_field "a" json in
      let* b = int_field "b" json in
      let* extra = int_field "extra_ns" json in
      let* from_s, until_s = window () in
      Ok (Faults.Slow_link { a; b; extra; from_s; until_s })
  | J.String "equivocate" -> byzantine Adversary.Equivocate
  | J.String "censor" ->
      let* buckets = ints_field "buckets" json in
      byzantine (Adversary.Censor { buckets })
  | J.String "corrupt_sig" -> byzantine Adversary.Corrupt_sig
  | J.String "replay" -> byzantine Adversary.Replay
  | J.String "bad_checkpoint" -> byzantine Adversary.Bad_checkpoint
  | J.String other -> Error (Printf.sprintf "unknown fault kind %S" other)
  | _ -> Error "field \"kind\": expected string"

let overload_to_json = function
  | Flash_crowd { at_s; factor; len_s; drop_oldest } ->
      J.Obj
        [
          ("kind", J.String "flash_crowd");
          ("at_s", J.Float at_s);
          ("factor", J.Float factor);
          ("len_s", J.Float len_s);
          ("drop_oldest", J.Bool drop_oldest);
        ]
  | Hot_bucket { skew; drop_oldest } ->
      J.Obj
        [
          ("kind", J.String "hot_bucket");
          ("skew", J.Float skew);
          ("drop_oldest", J.Bool drop_oldest);
        ]

let overload_of_json json =
  let* drop_oldest = field "drop_oldest" json in
  let* drop_oldest =
    match drop_oldest with
    | J.Bool b -> Ok b
    | _ -> Error "field \"drop_oldest\": expected bool"
  in
  let* kind = field "kind" json in
  match kind with
  | J.String "flash_crowd" ->
      let* at_s = float_field "at_s" json in
      let* factor = float_field "factor" json in
      let* len_s = float_field "len_s" json in
      Ok (Flash_crowd { at_s; factor; len_s; drop_oldest })
  | J.String "hot_bucket" ->
      let* skew = float_field "skew" json in
      Ok (Hot_bucket { skew; drop_oldest })
  | J.String other -> Error (Printf.sprintf "unknown overload kind %S" other)
  | _ -> Error "field \"kind\": expected string"

let to_json t =
  J.Obj
    ([
       ("seed", J.String (Int64.to_string t.seed));
       ("n", J.Int t.n);
       ("rate", J.Float t.rate);
       ("num_clients", J.Int t.num_clients);
       ("duration_s", J.Float t.duration_s);
       ("faults", J.List (List.map spec_to_json t.faults));
     ]
    (* Emitted only when present: pre-overload corpus files round-trip
       byte-identically. *)
    @ match t.overload with None -> [] | Some o -> [ ("overload", overload_to_json o) ])

let of_json json =
  let* seed = field "seed" json in
  let* seed =
    match seed with
    | J.String s -> (
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error "field \"seed\": expected int64 string")
    | J.Int i -> Ok (Int64.of_int i)
    | _ -> Error "field \"seed\": expected string or int"
  in
  let* n = int_field "n" json in
  let* rate = float_field "rate" json in
  let* num_clients = int_field "num_clients" json in
  let* duration_s = float_field "duration_s" json in
  let* faults = field "faults" json in
  let* faults =
    match J.to_list faults with
    | None -> Error "field \"faults\": expected list"
    | Some items ->
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* spec = spec_of_json item in
            Ok (spec :: acc))
          items (Ok [])
  in
  let* overload =
    match J.member "overload" json with
    | None -> Ok None
    | Some o ->
        let* o = overload_of_json o in
        Ok (Some o)
  in
  let t = { seed; n; rate; num_clients; duration_s; faults; overload } in
  let* () = validate t in
  Ok t

let of_string s =
  let* json = J.of_string s in
  of_json json

let to_string t = J.to_string (to_json t)

let pp_overload fmt = function
  | Flash_crowd { at_s; factor; len_s; drop_oldest } ->
      Format.fprintf fmt "flash-crowd %gx at %g-%gs (%s)" factor at_s (at_s +. len_s)
        (if drop_oldest then "drop-oldest" else "reject-new")
  | Hot_bucket { skew; drop_oldest } ->
      Format.fprintf fmt "hot-bucket zipf %g (%s)" skew
        (if drop_oldest then "drop-oldest" else "reject-new")

let pp fmt t =
  Format.fprintf fmt "scenario %s: n=%d rate=%g clients=%d duration=%gs, %a" (name t) t.n
    t.rate t.num_clients t.duration_s Faults.pp
    (Faults.make ~name:(name t) t.faults);
  match t.overload with
  | None -> ()
  | Some o -> Format.fprintf fmt ", overload %a" pp_overload o
