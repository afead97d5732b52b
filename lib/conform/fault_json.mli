(** JSON codec of {!Runner.Faults.spec} (DESIGN.md §9): one object per
    spec, tagged by ["kind"]; [of_json (to_json s) = Ok s]. *)

val to_json : Runner.Faults.spec -> Obs.Jsonx.t
val of_json : Obs.Jsonx.t -> (Runner.Faults.spec, string) result
