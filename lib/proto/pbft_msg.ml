type prepared_cert = { sn : int; view : int; proposal : Proposal.t }

type view_change = {
  new_view : int;
  prepared : prepared_cert list;
  vc_signer : Ids.node_id;
  vc_sig : Iss_crypto.Signature.signature;
}

type body =
  | Preprepare of { view : int; sn : int; proposal : Proposal.t }
  | Prepare of { view : int; sn : int; digest : Iss_crypto.Hash.t }
  | Commit of { view : int; sn : int; digest : Iss_crypto.Hash.t }
  | View_change of view_change
  | New_view of {
      view : int;
      view_changes : view_change list;
      preprepares : (int * Proposal.t) list;
    }
  | Fill_request of { sns : int list }
  | Fill of { sn : int; view : int; proposal : Proposal.t }

type t = { instance : int; body : body }

let view_change_material ~instance ~new_view ~vc_signer prepared =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "pbft-vc:%d:%d:%d:" instance new_view vc_signer);
  List.iter
    (fun pc ->
      Buffer.add_string buf
        (Printf.sprintf "%d/%d/%s;" pc.sn pc.view
           (Iss_crypto.Hash.to_hex (Proposal.digest pc.proposal))))
    prepared;
  Buffer.contents buf

let header = 24 (* instance + view + sn + type tag *)

let view_change_size vc =
  header
  + Iss_crypto.Signature.wire_size
  + List.fold_left (fun acc pc -> acc + 16 + Proposal.wire_size pc.proposal) 0 vc.prepared

let wire_size t =
  match t.body with
  | Preprepare { proposal; _ } -> header + Proposal.wire_size proposal
  | Prepare _ | Commit _ -> header + Iss_crypto.Hash.size
  | View_change vc -> view_change_size vc
  | New_view { view_changes; preprepares; _ } ->
      header
      + List.fold_left (fun acc vc -> acc + view_change_size vc) 0 view_changes
      + List.fold_left (fun acc (_, p) -> acc + 8 + Proposal.wire_size p) 0 preprepares
  | Fill_request { sns } -> header + (8 * List.length sns)
  | Fill { proposal; _ } -> header + Proposal.wire_size proposal

let pp fmt t =
  let s =
    match t.body with
    | Preprepare { view; sn; _ } -> Printf.sprintf "preprepare(v%d,sn%d)" view sn
    | Prepare { view; sn; _ } -> Printf.sprintf "prepare(v%d,sn%d)" view sn
    | Commit { view; sn; _ } -> Printf.sprintf "commit(v%d,sn%d)" view sn
    | View_change vc -> Printf.sprintf "view-change(v%d)" vc.new_view
    | New_view { view; _ } -> Printf.sprintf "new-view(v%d)" view
    | Fill_request { sns } -> Printf.sprintf "fill-request(%d sns)" (List.length sns)
    | Fill { sn; _ } -> Printf.sprintf "fill(sn%d)" sn
  in
  Format.fprintf fmt "pbft[i%d].%s" t.instance s
