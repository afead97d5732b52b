type group = {
  n : int;
  t : int;
  group_secret : string;
  share_secrets : string array;
      (* signer -> its share secret, derived on first use ("" until then).
         The derivation is deterministic, so deriving it once per group
         keeps the host cost of a share independent of how often it is
         signed or checked; the virtual cost is charged by the caller. *)
}

type share = { signer : int; proof : string }

type combined = { over : string }

let domain = "iss-sim-threshold-v1:"

let setup ~n ~t =
  if t <= 0 || t > n then invalid_arg "Threshold.setup: need 0 < t <= n";
  {
    n;
    t;
    group_secret = Sha256.digest (Printf.sprintf "%s%d/%d" domain t n);
    share_secrets = Array.make n "";
  }

let threshold g = g.t

let share_secret g signer =
  let s = g.share_secrets.(signer) in
  if s <> "" then s
  else begin
    let s = Sha256.digest (g.group_secret ^ "share:" ^ string_of_int signer) in
    g.share_secrets.(signer) <- s;
    s
  end

let sign_share g ~signer msg =
  if signer < 0 || signer >= g.n then invalid_arg "Threshold.sign_share: bad signer";
  { signer; proof = Sha256.digest (share_secret g signer ^ msg) }

let verify_share g ~signer msg s =
  signer = s.signer
  && signer >= 0 && signer < g.n
  && String.equal s.proof (Sha256.digest (share_secret g signer ^ msg))

let combine g msg shares =
  let seen = Hashtbl.create 8 in
  let valid =
    List.filter
      (fun s ->
        if Hashtbl.mem seen s.signer then false
        else if verify_share g ~signer:s.signer msg s then begin
          Hashtbl.replace seen s.signer ();
          true
        end
        else false)
      shares
  in
  if List.length valid >= g.t then Some { over = Sha256.digest (g.group_secret ^ "combined:" ^ msg) }
  else None

let verify g msg c = String.equal c.over (Sha256.digest (g.group_secret ^ "combined:" ^ msg))

let share_wire_size = 48
let combined_wire_size = 48
let share_sign_cost_ns = 300_000
let combine_cost_ns ~t = 150_000 + (t * 40_000)
let verify_cost_ns = 900_000
