let init_owner ~n ~epoch bucket = ((bucket + epoch) mod n + n) mod n

let client_targets ~n ~epoch ~current bucket =
  List.sort_uniq compare
    [ current; init_owner ~n ~epoch:(epoch + 1) bucket; init_owner ~n ~epoch:(epoch + 2) bucket ]

let init_buckets ~n ~num_buckets ~epoch ~node =
  let out = ref [] in
  for b = num_buckets - 1 downto 0 do
    if init_owner ~n ~epoch b = node then out := b :: !out
  done;
  !out

let assign ~n ~num_buckets ~epoch ~leaders =
  if Array.length leaders = 0 then invalid_arg "Bucket_assignment.assign: no leaders";
  let num_leaders = Array.length leaders in
  let is_leader = Array.make n false in
  let leader_index = Array.make n (-1) in
  Array.iteri
    (fun k l ->
      is_leader.(l) <- true;
      leader_index.(l) <- k)
    leaders;
  Array.init num_buckets (fun b ->
      let owner = init_owner ~n ~epoch b in
      if is_leader.(owner) then owner
      else begin
        (* Extra bucket: round-robin over leaders, rotated by the epoch. *)
        let k = (b + epoch) mod num_leaders in
        leaders.(k)
      end)

let buckets_of_leader ~n ~num_buckets ~epoch ~leaders ~leader =
  if not (Array.exists (fun l -> l = leader) leaders) then
    invalid_arg "Bucket_assignment.buckets_of_leader: not a leader";
  let all = assign ~n ~num_buckets ~epoch ~leaders in
  let out = ref [] in
  for b = num_buckets - 1 downto 0 do
    if all.(b) = leader then out := b :: !out
  done;
  !out
