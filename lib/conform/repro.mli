(** Repro files (DESIGN.md §9), the format of [test/conform_corpus/]: a
    ["scenario"] object plus optional ["protocol"], ["message"] and
    ["fingerprints"] (protocol name → pinned fingerprint).  A bare
    scenario object is a repro that replays against every protocol. *)

type t = {
  scenario : Scenario.t;
  protocols : Core.Config.protocol list;  (** the named one, else {!Harness.protocols} *)
  fingerprints : (string * string) list;
}

val pinned : t -> Core.Config.protocol -> string option
val of_json : Obs.Jsonx.t -> (t, string) result
val load : string -> (t, string) result
val to_json : Harness.failure -> Obs.Jsonx.t

val save : Harness.failure -> dir:string -> string
(** Writes the failure's repro into [dir] and returns the file path. *)
