(* Spans are encoded as integer nanoseconds; floats print via Jsonx's
   round-tripping formatter. *)

module Faults = Runner.Faults
module Adversary = Runner.Adversary
module J = Obs.Jsonx

let ( let* ) r f = Result.bind r f
let ints name = J.list_field name (function J.Int i -> Ok i | _ -> Error "expected int")

let to_json (s : Faults.spec) =
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

let of_json json =
  let window () =
    let* from_s = J.float_field "from_s" json in
    let* until_s = J.float_field "until_s" json in
    Ok (from_s, until_s)
  in
  let node_window make =
    let* node = J.int_field "node" json in
    let* from_s, until_s = window () in
    Ok (make node from_s until_s)
  in
  let byzantine attack =
    node_window (fun node from_s until_s -> Faults.Byzantine { node; attack; from_s; until_s })
  in
  let* kind = J.field "kind" json in
  match kind with
  | J.String "crash" ->
      let* node = J.int_field "node" json in
      let* at_s = J.float_field "at_s" json in
      Ok (Faults.Crash { node; at_s })
  | J.String "recover" ->
      let* node = J.int_field "node" json in
      let* at_s = J.float_field "at_s" json in
      Ok (Faults.Recover { node; at_s })
  | J.String "crash_recover" ->
      let* node = J.int_field "node" json in
      let* at_s = J.float_field "at_s" json in
      let* down_s = J.float_field "down_s" json in
      Ok (Faults.Crash_recover { node; at_s; down_s })
  | J.String "isolate" ->
      node_window (fun node from_s until_s -> Faults.Isolate { node; from_s; until_s })
  | J.String "split" ->
      let* minority = ints "minority" json in
      let* from_s, until_s = window () in
      Ok (Faults.Split { minority; from_s; until_s })
  | J.String "drop" ->
      let* prob = J.float_field "prob" json in
      let* from_s, until_s = window () in
      Ok (Faults.Drop { prob; from_s; until_s })
  | J.String "straggle" ->
      node_window (fun node from_s until_s -> Faults.Straggle { node; from_s; until_s })
  | J.String "slow_link" ->
      let* a = J.int_field "a" json in
      let* b = J.int_field "b" json in
      let* extra = J.int_field "extra_ns" json in
      let* from_s, until_s = window () in
      Ok (Faults.Slow_link { a; b; extra; from_s; until_s })
  | J.String "equivocate" -> byzantine Adversary.Equivocate
  | J.String "censor" ->
      let* buckets = ints "buckets" json in
      byzantine (Adversary.Censor { buckets })
  | J.String "corrupt_sig" -> byzantine Adversary.Corrupt_sig
  | J.String "replay" -> byzantine Adversary.Replay
  | J.String "bad_checkpoint" -> byzantine Adversary.Bad_checkpoint
  | J.String other -> Error (Printf.sprintf "unknown fault kind %S" other)
  | _ -> Error "field \"kind\": expected string"
