type level = Debug | Info | Warn

type sink = { min_level : level; write : at:Time_ns.t -> level:level -> string -> unit }

(* The single installation point: protocol code only ever consults this one
   reference.  The obs subsystem (lib/obs) provides sink constructors. *)
let current : sink option ref = ref None

let set_sink s = current := s
let sink () = !current

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2

let emit engine lvl fmt =
  match !current with
  | Some s when severity lvl >= severity s.min_level ->
      Format.kasprintf (fun msg -> s.write ~at:(Engine.now engine) ~level:lvl msg) fmt
  | Some _ | None -> Format.ifprintf Format.err_formatter fmt

let format_line ~at msg = Format.asprintf "[%a] %s" Time_ns.pp at msg

let stderr_sink ~min_level =
  { min_level; write = (fun ~at ~level:_ msg -> prerr_endline (format_line ~at msg)) }

let buffer_sink buf ~min_level =
  {
    min_level;
    write =
      (fun ~at ~level:_ msg ->
        Buffer.add_string buf (format_line ~at msg);
        Buffer.add_char buf '\n');
  }
