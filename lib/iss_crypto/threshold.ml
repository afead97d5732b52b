type group = { n : int; t : int }

(* Shares and combined signatures name their group by value: two setups with
   the same (n, t) are the same deterministic group. *)
type share = { group : group; signer : int; over : string }
type combined = { qc_group : group; qc_over : string }

let setup ~n ~t =
  if t <= 0 || t > n then invalid_arg "Threshold.setup: need 0 < t <= n";
  { n; t }

let same_group a b = a == b || (a.n = b.n && a.t = b.t)

let sign_share g ~signer msg =
  if signer < 0 || signer >= g.n then invalid_arg "Threshold.sign_share: bad signer";
  { group = g; signer; over = msg }

let share_over g msg s = same_group g s.group && String.equal s.over msg

let verify_share g ~signer msg s = s.signer = signer && share_over g msg s

let combine g msg shares =
  let seen = Array.make g.n false in
  let valid =
    List.fold_left
      (fun k s ->
        if share_over g msg s && not seen.(s.signer) then begin
          seen.(s.signer) <- true;
          k + 1
        end
        else k)
      0 shares
  in
  if valid >= g.t then Some { qc_group = g; qc_over = msg } else None

let verify g msg c = same_group g c.qc_group && String.equal c.qc_over msg

let share_wire_size = 48
let combined_wire_size = 48
let share_sign_cost_ns = 300_000
let combine_cost_ns ~t = 150_000 + (t * 40_000)
let verify_cost_ns = 900_000
