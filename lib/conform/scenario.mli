(** Conformance scenarios (DESIGN.md §9).

    A scenario is the plain-data description of one fuzzed run: cluster
    size, workload shape (rate, client-pool size, submission window) and a
    fault/jitter schedule.  [of_seed] derives every choice deterministically
    from one 64-bit seed; the JSON codec round-trips exactly, so a failing
    scenario can be committed to [test/conform_corpus/] and replayed
    bit-identically. *)

type overload =
  | Flash_crowd of { at_s : float; factor : float; len_s : float; drop_oldest : bool }
      (** offered load steps to [factor]x during [\[at_s, at_s + len_s)] *)
  | Hot_bucket of { skew : float; drop_oldest : bool }
      (** requests target a Zipf([skew])-hot bucket *)

type t = {
  seed : int64;  (** drives the cluster RNG and every fuzzer draw *)
  n : int;
  rate : float;  (** offered load, requests/s *)
  num_clients : int;  (** small pools stress the per-client watermark window *)
  duration_s : float;  (** submission window; runs extend to heal + grace *)
  faults : Runner.Faults.spec list;
  overload : overload option;
      (** when present the harness runs with flow control on (tiny buckets,
          shed policy from [drop_oldest]), the overload workload shape and a
          finite client retry budget — exercising the shed / give-up
          conformance rules *)
}

val of_seed : int64 -> t
(** Deterministic fuzzer: equal seeds give equal scenarios.  Draws cluster
    size (4–7), client pool (2–8), rate (60–280 req/s), duration (4–9 s), a
    fault schedule (a quarter of seeds run fault-free, a quarter draw an
    active-malice window via {!Runner.Faults.random_byzantine}, the rest a
    sequential benign schedule via {!Runner.Faults.random}), an optional
    slow-link latency-jitter window, and — in a fifth of the seeds — an
    overload window (flash crowd or hot bucket, drawn last so pre-overload
    seeds keep their exact scenarios). *)

val name : t -> string

val validate : ?protocol:Core.Config.protocol -> t -> (unit, string) result
(** Structural checks plus {!Runner.Faults.validate} on the schedule; pass
    [protocol] to additionally reject active-malice specs for Raft. *)

val has_byzantine : t -> bool
(** The schedule contains at least one active-malice spec — the harness
    skips Raft (crash-fault-tolerant only) for such scenarios. *)

val to_json : t -> Obs.Jsonx.t
val of_json : Obs.Jsonx.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
