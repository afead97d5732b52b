(** Segments: the log slice one SB instance is responsible for (§2.3).

    An epoch's sequence numbers are split round-robin over its leaders —
    [Seg(e,i) = { sn ∈ Sn(e) | k ≡ sn mod |Leaders(e)| }] for the k-th
    leader — which interleaves the segments and minimizes log gaps in
    fault-free runs. *)

type t = {
  epoch : int;
  instance : int;  (** globally unique SB instance id: [epoch * n + leader_index] *)
  leader : Proto.Ids.node_id;
  leader_index : int;  (** k: position of the leader in the epoch's leader list *)
  seq_nrs : int array;  (** ascending sequence numbers of this segment *)
  buckets : int list;  (** bucket numbers assigned to this segment *)
  first_sn : int;  (** first sequence number of the {e epoch} *)
  epoch_length : int;
}

val make_epoch :
  config:Config.t ->
  epoch:int ->
  start_sn:int ->
  leaders:int array ->
  t list
(** Builds all segments of epoch [epoch] starting at log position
    [start_sn].  [leaders] sorted ascending, non-empty.  The epoch length is
    [Config.epoch_length config ~leaders:(Array.length leaders)]; bucket
    assignment follows {!Bucket_assignment}. *)

val seq_count : t -> int

val contains_sn : t -> int -> bool

val owns_bucket : t -> int -> bool

val sn_index : t -> int -> int
(** Position of a sequence number within the segment (0-based), [-1] when
    the segment does not contain it. *)

val pp : Format.formatter -> t -> unit
