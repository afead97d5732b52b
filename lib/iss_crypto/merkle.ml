(* Levels are computed bottom-up; an odd trailing node is promoted to the
   next level unchanged.  Proofs record one step per level — either the
   sibling hash with its side, or an explicit promotion — so the verifier can
   track the leaf's index up the tree and reject proofs replayed at a
   different position. *)

type side = L | R

type step = Sibling of side * Hash.t | Promote

type proof = step list

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

let prove leaves i =
  let n = Array.length leaves in
  if i < 0 || i >= n then invalid_arg "Merkle.prove: index out of range";
  let path = ref [] in
  let level = ref leaves and idx = ref i in
  while Array.length !level > 1 do
    let n = Array.length !level in
    let sibling = if !idx land 1 = 0 then !idx + 1 else !idx - 1 in
    let step =
      if sibling < n then
        Sibling ((if !idx land 1 = 0 then R else L), !level.(sibling))
      else Promote
    in
    path := step :: !path;
    level := next_level !level;
    idx := !idx / 2
  done;
  List.rev !path

let verify_proof ~root:expected ~leaf ~index proof =
  let ok = ref true in
  let acc = ref leaf and idx = ref index in
  List.iter
    (fun step ->
      (match step with
      | Promote ->
          (* Only the last (odd) node of a level can be promoted, which
             forces an even... no: promotion happens exactly when the node is
             the unpaired last element, whose index is even in a level of odd
             length.  We cannot check level length here, but the index must
             be even for the node to be left-positioned and unpaired. *)
          if !idx land 1 <> 0 then ok := false
      | Sibling (side, sibling) ->
          let expected_side = if !idx land 1 = 0 then R else L in
          if side <> expected_side then ok := false
          else
            acc :=
              (match side with
              | R -> Hash.combine !acc sibling
              | L -> Hash.combine sibling !acc));
      idx := !idx / 2)
    proof;
  !ok && Hash.equal !acc expected
