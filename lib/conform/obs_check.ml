module Cluster = Runner.Cluster
module J = Obs.Jsonx

let metric_value ~name ?node snapshot =
  let node_matches node_field =
    match (node, node_field) with
    | None, None -> true
    | Some want, Some (J.Int got) -> want = got
    | _ -> false
  in
  match J.member "metrics" snapshot with
  | None -> None
  | Some (J.List entries) ->
      List.find_map
        (fun e ->
          match (J.member "name" e, J.member "node" e) with
          | Some (J.String n), node_field when n = name && node_matches node_field -> (
              match J.member "value" e with Some (J.Int v) -> Some v | _ -> None)
          | _ -> None)
        entries
  | Some _ -> None

let check ~cluster ~registry ~tracer ~engine (stats : Checker.stats) =
  let snapshot = Obs.Registry.snapshot registry ~at:(Sim.Engine.now engine) in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
  (match metric_value ~name:"cluster.delivered_quorum" snapshot with
  | Some v ->
      if v <> stats.Checker.quorum_requests then
        fail "registry cluster.delivered_quorum=%d but the checker counted %d" v
          stats.Checker.quorum_requests
  | None -> fail "registry snapshot is missing cluster.delivered_quorum");
  (match metric_value ~name:"cluster.submitted" snapshot with
  | Some v ->
      if v <> Cluster.submitted cluster then
        fail "registry cluster.submitted=%d but the cluster counted %d" v
          (Cluster.submitted cluster)
  | None -> fail "registry snapshot is missing cluster.submitted");
  Array.iteri
    (fun node count ->
      match metric_value ~name:"node.delivered" ~node snapshot with
      | Some v ->
          if v <> count then
            fail "registry node.delivered=%d for node %d but the checker counted %d" v node
              count
      | None -> fail "registry snapshot is missing node.delivered for node %d" node)
    stats.Checker.per_node_delivered;
  (* Tracer: every reply event must belong to a request that was submitted
     first, with non-decreasing timestamps. *)
  let submit_at = Hashtbl.create 4096 in
  Obs.Tracer.iter tracer (fun ~req ~node:_ ~at phase ->
      match phase with
      | Obs.Tracer.Submit -> if not (Hashtbl.mem submit_at req) then Hashtbl.replace submit_at req at
      | Obs.Tracer.Reply -> (
          match Hashtbl.find_opt submit_at req with
          | None -> fail "tracer recorded a reply for request key %d with no submit event" req
          | Some t0 ->
              if at < t0 then
                fail "tracer recorded a reply before the submit for request key %d" req)
      | _ -> ());
  !err
