module J = Obs.Jsonx

type t = {
  scenario : Scenario.t;
  protocols : Core.Config.protocol list;
  fingerprints : (string * string) list;
}

let ( let* ) r f = Result.bind r f

let pinned t p = List.assoc_opt (Core.Config.protocol_name p) t.fingerprints

let protocol_of_name s =
  match String.lowercase_ascii s with
  | "pbft" -> Some Core.Config.PBFT
  | "hotstuff" -> Some Core.Config.HotStuff
  | "raft" -> Some Core.Config.Raft
  | _ -> None

let of_json json =
  let scenario_json = match J.member "scenario" json with Some s -> s | None -> json in
  let* scenario = Scenario.of_json scenario_json in
  let* protocols =
    match J.member "protocol" json with
    | Some (J.String p) -> (
        match protocol_of_name p with
        | Some p -> Ok [ p ]
        | None -> Error (Printf.sprintf "unknown protocol %S" p))
    | _ -> Ok Harness.protocols
  in
  let fingerprints =
    match J.member "fingerprints" json with
    | Some (J.Obj kvs) ->
        List.filter_map (function name, J.String fp -> Some (name, fp) | _ -> None) kvs
    | _ -> []
  in
  Ok { scenario; protocols; fingerprints }

let load file =
  let* json = J.of_string (In_channel.with_open_text file In_channel.input_all) in
  of_json json

let to_json (f : Harness.failure) =
  J.Obj
    [
      ("scenario", Scenario.to_json f.Harness.scenario);
      ("protocol", J.String (Core.Config.protocol_name f.Harness.protocol));
      ("message", J.String f.Harness.message);
    ]

let save (f : Harness.failure) ~dir =
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-%s.json" (Scenario.name f.Harness.scenario)
         (String.lowercase_ascii (Core.Config.protocol_name f.Harness.protocol)))
  in
  let oc = open_out file in
  output_string oc (J.to_string (to_json f));
  output_char oc '\n';
  close_out oc;
  file
