(* Order statistics and the verdict rule of the compare mode. *)

let sorted values = List.sort Float.compare values |> Array.of_list

(* Quartiles as Python's [statistics.quantiles(values, n=4)] (exclusive
   method) gives them, so the numbers match the ones the benchmark's
   stability rule is stated in. *)
let quartiles values =
  let d = sorted values in
  let len = Array.length d in
  if len = 0 then invalid_arg "Stats.quartiles: no values";
  if len = 1 then (d.(0), d.(0), d.(0))
  else
    let m = len + 1 in
    let cut i =
      let j = min (len - 1) (max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

let median values =
  let _, m, _ = quartiles values in
  m

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type comparison = {
  a : float * float * float;  (** q1, median, q3 *)
  b : float * float * float;
  win : float;  (** share of (a, b) pairs in which b reads better; ties count for neither *)
  verdict : verdict;
}

(* Side [b] against side [a] for a metric where [better] orders two values
   and [bound] is the share of a's median by which b may be worse:
   - better: b wins at least nine tenths of the pairs and the medians differ
     by more than the distance between a's quartiles;
   - worse: b's median is worse than a's by more than the bound;
   - unresolved: otherwise, if either side's quartile spread is wider than
     the bound, unless every run of b reads better than every run of a;
   - same: otherwise. *)
let compare ~lower_is_better ~bound a b =
  let ((_, ma, _) as qa) = quartiles a and ((_, mb, _) as qb) = quartiles b in
  let better x y = if lower_is_better then x < y else x > y in
  let pairs = List.length a * List.length b in
  let wins = List.fold_left (fun acc y -> acc + List.length (List.filter (better y) a)) 0 b in
  let win = float_of_int wins /. float_of_int pairs in
  let spread (q1, m, q3) = if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m in
  let worse_by = if ma = 0.0 then 0.0 else (if lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let iqr_a = let q1, _, q3 = qa in q3 -. q1 in
  let verdict =
    if win >= 0.9 && Float.abs (mb -. ma) > iqr_a then Better
    else if worse_by > bound then Worse
    else if Float.max (spread qa) (spread qb) > bound && wins < pairs then Unresolved
    else Same
  in
  { a = qa; b = qb; win; verdict }
