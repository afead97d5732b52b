type public_key = int
type keypair = { id : int; secret : string }
type signature = string

(* The secret is derived from the id but never exposed; deriving it requires
   this constant, which models "only the keyholder knows the secret". *)
let secret_domain = "iss-sim-secret-key-v1:"

let genkey ~id = { id; secret = Sha256.digest (secret_domain ^ string_of_int id) }

let public kp = kp.id
let public_of_id id = id

let sign kp msg = Sha256.digest (kp.secret ^ msg)

let verify pk msg s =
  let kp = genkey ~id:pk in
  String.equal (sign kp msg) s

let wire_size = 64
let sign_cost_ns = 70_000
let verify_cost_ns = 200_000

let forged () = String.make 32 '\x00'
