module J = Obs.Jsonx

type t =
  | Flash_crowd of { at_s : float; factor : float; len_s : float; drop_oldest : bool }
  | Hot_bucket of { skew : float; drop_oldest : bool }

let ( let* ) r f = Result.bind r f

let validate = function
  | Flash_crowd { at_s; factor; len_s; _ } ->
      if at_s < 0.0 then Error "overload: at_s must be non-negative"
      else if factor <= 1.0 then Error "overload: factor must exceed 1"
      else if len_s <= 0.0 then Error "overload: len_s must be positive"
      else Ok ()
  | Hot_bucket { skew; _ } ->
      if skew <= 0.0 then Error "overload: skew must be positive" else Ok ()

(* Bounded admission, with buckets small enough that conformance-scale
   rates actually shed.  The shed policy comes from the scenario's
   [drop_oldest] draw. *)
let tweak o c =
  let drop_oldest =
    match o with Flash_crowd { drop_oldest; _ } | Hot_bucket { drop_oldest; _ } -> drop_oldest
  in
  let shed = if drop_oldest then Core.Config.Drop_oldest else Core.Config.Reject_new in
  { c with Core.Config.admission = Core.Config.Bounded { capacity = 16; shed } }

let shape = function
  | Flash_crowd { at_s; factor; len_s; _ } -> Runner.Workload.Flash_crowd { at_s; factor; len_s }
  | Hot_bucket { skew; _ } -> Runner.Workload.Hot_bucket { skew }

let retry_budget = 4

let to_json = function
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

let of_json json =
  let* drop_oldest = J.field "drop_oldest" json in
  let* drop_oldest =
    match drop_oldest with
    | J.Bool b -> Ok b
    | _ -> Error "field \"drop_oldest\": expected bool"
  in
  let* kind = J.field "kind" json in
  match kind with
  | J.String "flash_crowd" ->
      let* at_s = J.float_field "at_s" json in
      let* factor = J.float_field "factor" json in
      let* len_s = J.float_field "len_s" json in
      Ok (Flash_crowd { at_s; factor; len_s; drop_oldest })
  | J.String "hot_bucket" ->
      let* skew = J.float_field "skew" json in
      Ok (Hot_bucket { skew; drop_oldest })
  | J.String other -> Error (Printf.sprintf "unknown overload kind %S" other)
  | _ -> Error "field \"kind\": expected string"

let pp fmt = function
  | Flash_crowd { at_s; factor; len_s; drop_oldest } ->
      Format.fprintf fmt "flash-crowd %gx at %g-%gs (%s)" factor at_s (at_s +. len_s)
        (if drop_oldest then "drop-oldest" else "reject-new")
  | Hot_bucket { skew; drop_oldest } ->
      Format.fprintf fmt "hot-bucket zipf %g (%s)" skew
        (if drop_oldest then "drop-oldest" else "reject-new")
