type public_key = int
type keypair = int
type signature = { signer : int; over : string }

let genkey ~id = id
let public kp = kp
let public_of_id id = id

let sign kp msg = { signer = kp; over = msg }
let verify pk msg s = s.signer = pk && String.equal s.over msg

let wire_size = 64
let sign_cost_ns = 70_000
let verify_cost_ns = 200_000
