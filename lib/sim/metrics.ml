module Histogram = struct
  type t = {
    mutable samples : float array;
    mutable size : int;
    mutable sorted : bool;
  }

  let create () = { samples = [||]; size = 0; sorted = true }

  let add t x =
    let cap = Array.length t.samples in
    if t.size = cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let ns = Array.make ncap 0.0 in
      Array.blit t.samples 0 ns 0 t.size;
      t.samples <- ns
    end;
    t.samples.(t.size) <- x;
    t.size <- t.size + 1;
    t.sorted <- false

  let count t = t.size

  let mean t =
    if t.size = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = 0 to t.size - 1 do
        sum := !sum +. t.samples.(i)
      done;
      !sum /. float_of_int t.size
    end

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.samples 0 t.size in
      Array.sort compare live;
      Array.blit live 0 t.samples 0 t.size;
      t.sorted <- true
    end

  let percentile t p =
    if t.size = 0 then 0.0
    else begin
      ensure_sorted t;
      let rank = int_of_float (Float.round (p /. 100.0 *. float_of_int (t.size - 1))) in
      let rank = Stdlib.max 0 (Stdlib.min (t.size - 1) rank) in
      t.samples.(rank)
    end

  let min t = if t.size = 0 then 0.0 else (ensure_sorted t; t.samples.(0))
  let max t = if t.size = 0 then 0.0 else (ensure_sorted t; t.samples.(t.size - 1))
end

module Series = struct
  type t = {
    bin : Time_ns.span;
    mutable sums : float array;
    mutable used : int;
  }

  let create ~bin =
    assert (bin > 0);
    { bin; sums = [||]; used = 0 }

  let ensure t idx =
    let cap = Array.length t.sums in
    if idx >= cap then begin
      let ncap = Stdlib.max (idx + 1) (Stdlib.max 16 (cap * 2)) in
      let ns = Array.make ncap 0.0 in
      Array.blit t.sums 0 ns 0 t.used;
      t.sums <- ns
    end;
    if idx >= t.used then t.used <- idx + 1

  let add t ~at x =
    let idx = at / t.bin in
    ensure t idx;
    t.sums.(idx) <- t.sums.(idx) +. x

  let bins t ~until =
    let n = (until + t.bin - 1) / t.bin in
    Array.init n (fun i -> if i < t.used then t.sums.(i) else 0.0)

  let rate_per_sec t ~until =
    let per_bin = bins t ~until in
    let scale = 1e9 /. float_of_int t.bin in
    Array.map (fun x -> x *. scale) per_bin
end
