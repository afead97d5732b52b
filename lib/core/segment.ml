type t = {
  epoch : int;
  instance : int;
  leader : Proto.Ids.node_id;
  leader_index : int;
  seq_nrs : int array;
  buckets : int list;
  first_sn : int;
  epoch_length : int;
}

let make_epoch ~config ~epoch ~start_sn ~leaders =
  let num_leaders = Array.length leaders in
  if num_leaders = 0 then invalid_arg "Segment.make_epoch: no leaders";
  let len = Config.epoch_length config ~leaders:num_leaders in
  let n = config.Config.n in
  let num_buckets = Config.num_buckets config in
  let owner = Bucket_assignment.assign ~n ~num_buckets ~epoch ~leaders in
  List.init num_leaders (fun k ->
      let leader = leaders.(k) in
      let seq_nrs =
        let count = ((len - 1 - k) / num_leaders) + 1 in
        Array.init count (fun j -> start_sn + k + (j * num_leaders))
      in
      let buckets = ref [] in
      for b = num_buckets - 1 downto 0 do
        if owner.(b) = leader then buckets := b :: !buckets
      done;
      {
        epoch;
        instance = (epoch * n) + k;
        leader;
        leader_index = k;
        seq_nrs;
        buckets = !buckets;
        first_sn = start_sn;
        epoch_length = len;
      })

let seq_count t = Array.length t.seq_nrs

(* seq_nrs is an arithmetic progression (stride = number of leaders), so
   membership and position are O(1). *)
let sn_index t sn =
  let count = Array.length t.seq_nrs in
  if count = 0 then -1
  else begin
    let stride = if count > 1 then t.seq_nrs.(1) - t.seq_nrs.(0) else 1 in
    let off = sn - t.seq_nrs.(0) in
    if off < 0 || off mod stride <> 0 || off / stride >= count then -1 else off / stride
  end

let contains_sn t sn = sn_index t sn >= 0

let owns_bucket t b = List.mem b t.buckets

let pp fmt t =
  Format.fprintf fmt "segment(e%d,i%d,leader n%d,%d seqnrs,%d buckets)" t.epoch t.instance
    t.leader (Array.length t.seq_nrs) (List.length t.buckets)
