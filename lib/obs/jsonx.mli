(** Minimal JSON values for the observability exporters.

    Printing always yields RFC 8259-valid text (non-finite floats degrade to
    [null]); the bundled parser handles everything the printer emits, so
    tests can round-trip exporter output without external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_buffer : Buffer.t -> t -> unit

val of_string : string -> (t, string) result
(** Parses one complete JSON value (surrounding whitespace allowed). *)

(** {2 Lookup helpers (tests, report generation)} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for other constructors or missing keys. *)

val to_list : t -> t list option
val to_float : t -> float option
(** [Int] widens to float. *)

(** {2 Field readers (decoders)}

    Each reads one field of an [Obj]; the [Error] names the field. *)

val field : string -> t -> (t, string) result
val int_field : string -> t -> (int, string) result
val float_field : string -> t -> (float, string) result
(** [Int] widens to float. *)

val list_field : string -> (t -> ('a, string) result) -> t -> ('a list, string) result
(** Decodes every element; an element's [Error] is prefixed with the field. *)
