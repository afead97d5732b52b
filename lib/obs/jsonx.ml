(* Minimal JSON values: enough for the observability exporters without
   pulling a JSON dependency into the build.  Printing always produces
   RFC 8259-valid text (non-finite floats degrade to null); the parser
   accepts exactly the grammar the printer emits plus whitespace, which is
   all the tests and the CI smoke check need. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then begin
        (* %.17g roundtrips but is noisy; prefer %.12g when it still reads
           back as the same float. *)
        let s = Printf.sprintf "%.12g" f in
        let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
        Buffer.add_string buf s
        (* "1e+06" is valid JSON; bare "1" for 1.0 is too (a JSON number). *)
      end
      else Buffer.add_string buf "null"
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent) *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let error c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

let parse_string_raw c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
        | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.text then error c "bad \\u escape";
            let hex = String.sub c.text c.pos 4 in
            c.pos <- c.pos + 4;
            let code = int_of_string ("0x" ^ hex) in
            (* Only BMP codepoints below 0x80 are emitted by the printer. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
            go ()
        | _ -> error c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.text start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string_raw c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin advance c; List [] end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; items (v :: acc)
          | Some ']' -> advance c; List (List.rev (v :: acc))
          | _ -> error c "expected ',' or ']'"
        in
        items []
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin advance c; Obj [] end
      else begin
        let rec fields acc =
          skip_ws c;
          let k = parse_string_raw c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; fields ((k, v) :: acc)
          | Some '}' -> advance c; Obj (List.rev ((k, v) :: acc))
          | _ -> error c "expected ',' or '}'"
        in
        fields []
      end
  | Some ('-' | '0' .. '9') -> parse_number c
  | _ -> error c "unexpected character"

let of_string s =
  let c = { text = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage"
      else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors for tests *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Field readers for decoders *)

let ( let* ) r f = Result.bind r f

let field name json =
  match member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name json =
  let* v = field name json in
  match v with Int i -> Ok i | _ -> Error (Printf.sprintf "field %S: expected int" name)

let float_field name json =
  let* v = field name json in
  match to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S: expected number" name)

let list_field name decode json =
  let* v = field name json in
  match v with
  | List items ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          match decode item with
          | Ok x -> Ok (x :: acc)
          | Error e -> Error (Printf.sprintf "field %S: %s" name e))
        items (Ok [])
  | _ -> Error (Printf.sprintf "field %S: expected list" name)
