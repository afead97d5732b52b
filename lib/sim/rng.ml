(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   field would box a fresh [Int64] on every draw. *)
type t = {
  state : Bytes.t;
  mutable zipf_cache : zipf_table option;
}

and zipf_table = { zn : int; zs : float; cdf : float array }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 seed;
  { state; zipf_cache = None }

(* SplitMix64 core: add the golden gamma, then mix with two xor-shift-multiply
   rounds (constants from the reference implementation).  Inlined so that
   [int], [float] and [bool] keep the whole computation unboxed. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create ~seed:(next_int64 t)

let int t bound =
  assert (bound > 0);
  (* Mask to 62 bits: Int64.to_int wraps values >= 2^62 to negative OCaml
     ints, which would leak negative results through the modulo. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) land max_int in
  r mod bound

let[@inline] float t bound =
  (* 53 random bits scaled to [0,1), as in the standard doubles recipe. *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let uniform_range t ~lo ~hi = lo +. float t (hi -. lo)

let build_zipf_table ~n ~s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 1 to n do
    acc := !acc +. (1.0 /. (Float.of_int k ** s));
    cdf.(k - 1) <- !acc
  done;
  let total = !acc in
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. total
  done;
  { zn = n; zs = s; cdf }

let zipf t ~n ~s =
  assert (n > 0);
  let table =
    match t.zipf_cache with
    | Some z when z.zn = n && z.zs = s -> z
    | _ ->
        let z = build_zipf_table ~n ~s in
        t.zipf_cache <- Some z;
        z
  in
  let u = float t 1.0 in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if table.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
