(* Levels are computed bottom-up; an odd trailing node is promoted to the
   next level unchanged. *)

let empty_root = Hash.of_string ""

let next_level level =
  let n = Array.length level in
  let m = (n + 1) / 2 in
  Array.init m (fun i ->
      if (2 * i) + 1 < n then Hash.combine level.(2 * i) level.((2 * i) + 1)
      else level.(2 * i))

let root leaves =
  if Array.length leaves = 0 then empty_root
  else begin
    let level = ref leaves in
    while Array.length !level > 1 do
      level := next_level !level
    done;
    !level.(0)
  end
