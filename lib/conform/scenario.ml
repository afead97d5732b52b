(* A conformance scenario: everything needed to reproduce one fuzzed run —
   cluster size, workload shape, and the fault/jitter schedule.  Scenarios
   are plain data with an exact JSON round-trip so a failing seed can be
   committed to the corpus and replayed bit-identically later. *)

module Rng = Sim.Rng
module Faults = Runner.Faults
module J = Obs.Jsonx

type t = {
  seed : int64;  (* drives the cluster RNG and (via derivation) every draw below *)
  n : int;
  rate : float;  (* offered load, requests/s *)
  num_clients : int;  (* small pools stress the per-client watermark window *)
  duration_s : float;  (* submission window; the run extends to heal + grace *)
  faults : Faults.spec list;
  overload : Overload.t option;
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
          (Overload.Flash_crowd
             {
               at_s = ms_quant (0.2 *. duration_s +. Rng.float rng (0.3 *. duration_s));
               factor = float_of_int (6 + Rng.int rng 7);
               len_s = ms_quant (1.0 +. Rng.float rng 2.0);
               drop_oldest;
             })
      else
        Some
          (Overload.Hot_bucket
             { skew = 0.9 +. (0.1 *. float_of_int (Rng.int rng 8)); drop_oldest })
    end
    else None
  in
  { seed; n; rate; num_clients; duration_s; faults = schedule @ jitter; overload }

let validate ?protocol t =
  if t.n < 4 then Error "n must be at least 4"
  else if t.rate <= 0.0 then Error "rate must be positive"
  else if t.num_clients < 1 then Error "num_clients must be positive"
  else if t.duration_s <= 0.0 then Error "duration_s must be positive"
  else
    match Option.fold ~none:(Ok ()) ~some:Overload.validate t.overload with
    | Error _ as e -> e
    | Ok () -> Faults.validate ?protocol (Faults.make ~name:(name t) t.faults) ~n:t.n

let has_byzantine t = Faults.has_byzantine (Faults.make ~name:(name t) t.faults)

(* ------------------------------------------------------------------ *)
(* JSON codec (repro files).  The fault specs and the overload window
   encode through Fault_json and Overload; floats print via Jsonx's
   round-tripping formatter. *)

let ( let* ) r f = Result.bind r f

let to_json t =
  J.Obj
    ([
       ("seed", J.String (Int64.to_string t.seed));
       ("n", J.Int t.n);
       ("rate", J.Float t.rate);
       ("num_clients", J.Int t.num_clients);
       ("duration_s", J.Float t.duration_s);
       ("faults", J.List (List.map Fault_json.to_json t.faults));
     ]
    (* Emitted only when present: pre-overload corpus files round-trip
       byte-identically. *)
    @ match t.overload with None -> [] | Some o -> [ ("overload", Overload.to_json o) ])

let of_json json =
  let* seed = J.field "seed" json in
  let* seed =
    match seed with
    | J.String s -> (
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error "field \"seed\": expected int64 string")
    | J.Int i -> Ok (Int64.of_int i)
    | _ -> Error "field \"seed\": expected string or int"
  in
  let* n = J.int_field "n" json in
  let* rate = J.float_field "rate" json in
  let* num_clients = J.int_field "num_clients" json in
  let* duration_s = J.float_field "duration_s" json in
  let* faults = J.list_field "faults" Fault_json.of_json json in
  let* overload =
    match J.member "overload" json with
    | None -> Ok None
    | Some o ->
        let* o = Overload.of_json o in
        Ok (Some o)
  in
  let t = { seed; n; rate; num_clients; duration_s; faults; overload } in
  let* () = validate t in
  Ok t

let of_string s =
  let* json = J.of_string s in
  of_json json

let to_string t = J.to_string (to_json t)

let pp fmt t =
  Format.fprintf fmt "scenario %s: n=%d rate=%g clients=%d duration=%gs, %a" (name t) t.n
    t.rate t.num_clients t.duration_s Faults.pp
    (Faults.make ~name:(name t) t.faults);
  match t.overload with
  | None -> ()
  | Some o -> Format.fprintf fmt ", overload %a" Overload.pp o
