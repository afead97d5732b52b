(** The overload window of a conformance scenario (DESIGN.md §9): a
    saturating workload shape, run with bounded admission and a finite
    client retry budget so that sheds and give-ups fire. *)

type t =
  | Flash_crowd of { at_s : float; factor : float; len_s : float; drop_oldest : bool }
      (** offered load steps to [factor]x during [\[at_s, at_s + len_s)] *)
  | Hot_bucket of { skew : float; drop_oldest : bool }
      (** requests target a Zipf([skew])-hot bucket *)

val validate : t -> (unit, string) result

val tweak : t -> Core.Config.t -> Core.Config.t
(** [Bounded] admission: buckets of 16, shed policy from [drop_oldest]. *)

val shape : t -> Runner.Workload.shape
val retry_budget : int
val to_json : t -> Obs.Jsonx.t
val of_json : Obs.Jsonx.t -> (t, string) result
val pp : Format.formatter -> t -> unit
