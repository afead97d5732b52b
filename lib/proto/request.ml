type id = { client : Ids.client_id; ts : int }

type sig_data =
  | Unsigned
  | Signed of { signer : Iss_crypto.Signature.public_key; covers : id }

type t = {
  id : id;
  payload_size : int;
  sig_data : sig_data;
  submitted_at : Sim.Time_ns.t;
}

(* The paper's request size: 500 B, an average Bitcoin transaction. *)
let payload_bytes = 500

let signed_by kp id = Signed { signer = Iss_crypto.Signature.public kp; covers = id }

let make ~client ~ts ?(payload_size = payload_bytes) ?(signed = true) ~submitted_at () =
  let id = { client; ts } in
  let sig_data =
    if signed then signed_by (Iss_crypto.Signature.genkey ~id:client) id else Unsigned
  in
  { id; payload_size; sig_data; submitted_at }

let sign kp r = { r with sig_data = signed_by kp r.id }

let equal_id a b = a.client = b.client && a.ts = b.ts

let signature_valid r =
  match r.sig_data with
  | Unsigned -> false
  | Signed { signer; covers } ->
      (signer :> int) = r.id.client && (covers == r.id || equal_id covers r.id)

let id_key id = (id.client lsl 31) lor (id.ts land 0x7FFFFFFF)

module Key_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* The table indexes by the hash's low bits, and [id_key]'s low bits are
     the timestamp alone: multiply to spread every key bit upwards, then
     fold the high half back down. *)
  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

let bucket_of_id ~num_buckets id =
  assert (num_buckets > 0);
  (* Multiplicative mixing of (c ‖ t); the constant is the 32-bit golden
     ratio, giving a uniform spread even for a single client's consecutive
     timestamps. *)
  let mixed = ((id.client * 0x9E3779B1) + id.ts) land max_int in
  mixed mod num_buckets

let id_wire_size = 16 (* two 64-bit integers *)

let wire_size r =
  let sig_bytes =
    match r.sig_data with
    | Unsigned -> 0
    | Signed _ -> Iss_crypto.Signature.wire_size
  in
  r.payload_size + id_wire_size + sig_bytes

let pp_id fmt id = Format.fprintf fmt "(c%d,t%d)" id.client id.ts
