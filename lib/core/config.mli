(** ISS configuration (paper Table 1).

    One record gathers every knob the evaluation varies.  The per-protocol
    presets ({!pbft_default}, {!hotstuff_default}, {!raft_default}) encode
    the exact values of Table 1. *)

type protocol = PBFT | HotStuff | Raft

type leader_policy_kind =
  | Simple
  | Backoff
  | Blacklist
  | Fixed of Proto.Ids.node_id list
      (** Constant leader set; [Fixed [0]] turns ISS into the single-leader
          baseline protocol the paper compares against. *)
  | Straggler_aware
      (** Extension of BLACKLIST implementing the paper's §6.4.2 future-work
          suggestion: additionally ban leaders whose finished segments are
          conspicuously under-filled (mostly empty batches while other
          leaders ship full ones) — evidence that, unlike timing, is derived
          from the log and therefore identical at every correct node. *)

type shed_policy =
  | Reject_new  (** a full bucket refuses the incoming request *)
  | Drop_oldest
      (** a full bucket evicts its oldest unordered request to admit the
          incoming one (freshness over fairness) *)

type t = {
  protocol : protocol;
  n : int;  (** number of nodes *)
  leader_policy : leader_policy_kind;  (** paper default: BLACKLIST *)
  buckets_per_leader : int;  (** Table 1: 16; total buckets = 16·n *)
  max_batch_size : int;  (** requests per batch *)
  batch_rate : float option;
      (** total batches/s across all leaders (PBFT, Raft: 32);
          [None] = unthrottled (HotStuff) *)
  min_batch_timeout : Sim.Time_ns.span;
  max_batch_timeout : Sim.Time_ns.span;
      (** a leader proposes at the latest this long after its previous
          proposal, even if the batch is not full *)
  min_epoch_length : int;  (** sequence numbers per epoch, at least *)
  min_segment_size : int;
      (** per-leader floor: the epoch grows to [leaders · min_segment_size]
          when the minimum epoch length would make segments too short *)
  epoch_change_timeout : Sim.Time_ns.span;
      (** SB-level failure-detection timeout (PBFT view change /
          HotStuff pacemaker / Raft election base) *)
  client_watermark_window : int;
      (** per-client in-flight request budget per epoch (§3.7) *)
  flow_control : bool;
      (** Master switch for ingress admission control (default [false]).
          When off, every flow-control code path is skipped entirely so the
          simulation is bit-identical to a build without the feature —
          conformance fingerprints pin this. *)
  bucket_capacity : int;
      (** Maximum unordered requests a single bucket queue holds before the
          node sheds ([flow_control] only). *)
  shed_policy : shed_policy;  (** What to do when a bucket is full. *)
  pushback_watermark : float;
      (** Occupancy fraction of [bucket_capacity] at which the node starts
          sending advisory [Busy] pushback (before it actually sheds);
          in (0, 1]. *)
}

val num_buckets : t -> int
(** Total bucket count: [buckets_per_leader * n]. *)

val epoch_length : t -> leaders:int -> int
(** Length of an epoch led by [leaders] nodes:
    [max min_epoch_length (leaders * min_segment_size)]. *)

val client_signatures : t -> bool
(** Table 1: clients sign requests (ECDSA) under the BFT protocols, not
    under Raft. *)

val max_faulty : t -> int
val strong_quorum : t -> int

val reply_quorum : t -> int
(** Matching replies a client waits for (§4.3): f+1 under the BFT
    protocols, one under Raft. *)

val pbft_default : n:int -> t
val hotstuff_default : n:int -> t
val raft_default : n:int -> t
val default_for : protocol -> n:int -> t

val validate : t -> (unit, string) result
(** Sanity-checks parameter combinations (positive sizes, BFT resilience
    bound, etc.). *)

val pp : Format.formatter -> t -> unit
val protocol_name : protocol -> string
val policy_name : leader_policy_kind -> string
val shed_policy_name : shed_policy -> string
