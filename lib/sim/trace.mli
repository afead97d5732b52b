(** Lightweight simulation tracing.

    Protocol code emits trace points tagged with the simulated time.  Where
    the trace text goes is decided by the installed {!sink} — nothing, a
    buffer, stderr, or anything the observability layer (lib/obs) installs.
    With no sink installed, {!emit} pays no formatting cost. *)

type level = Debug | Info | Warn

type sink = {
  min_level : level;
  write : at:Time_ns.t -> level:level -> string -> unit;
      (** Called once per emitted line with the formatted message (no
          timestamp prefix — the sink decides the presentation). *)
}

val set_sink : sink option -> unit
(** Install (or remove) the trace sink.  One sink is active at a time. *)

val sink : unit -> sink option

val stderr_sink : min_level:level -> sink
(** Writes ["[<sim time>] <msg>"] lines to stderr. *)

val buffer_sink : Buffer.t -> min_level:level -> sink
(** Appends ["[<sim time>] <msg>\n"] to the buffer. *)

val emit : Engine.t -> level -> ('a, Format.formatter, unit) format -> 'a
(** [emit engine lvl fmt ...] formats and hands the line to the installed
    sink when one is present at [lvl] or below; otherwise free. *)
