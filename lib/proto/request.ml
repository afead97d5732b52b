type id = { client : Ids.client_id; ts : int }

type sig_data =
  | Signed of Iss_crypto.Signature.signature
  | Presumed of bool
  | Unsigned

type t = {
  id : id;
  payload_size : int;
  sig_data : sig_data;
  submitted_at : Sim.Time_ns.t;
}

let make ~client ~ts ?(payload_size = 500) ?(sig_data = Presumed true) ~submitted_at () =
  { id = { client; ts }; payload_size; sig_data; submitted_at }

let signing_material r =
  Printf.sprintf "req:%d:%d:%d" r.id.client r.id.ts r.payload_size

let sign kp r = { r with sig_data = Signed (Iss_crypto.Signature.sign kp (signing_material r)) }

let signature_valid r =
  match r.sig_data with
  | Unsigned -> true
  | Presumed ok -> ok
  | Signed s ->
      Iss_crypto.Signature.verify
        (Iss_crypto.Signature.public_of_id r.id.client)
        (signing_material r) s

let equal_id a b = a.client = b.client && a.ts = b.ts

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
    | Signed _ | Presumed _ -> Iss_crypto.Signature.wire_size
  in
  r.payload_size + id_wire_size + sig_bytes

let pp_id fmt id = Format.fprintf fmt "(c%d,t%d)" id.client id.ts
