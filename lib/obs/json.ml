(* See json.mli.  The parser is a cursor over the input that raises a
   local exception on the first bad byte; [parse] turns it into an
   [Error], so no exception escapes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* the first of 15, 16 or 17 significant digits that reads back equal;
   an integral-looking result gets ".0" so it parses back as a float *)
let float_repr f =
  let s =
    List.find
      (fun s -> float_of_string s = f)
      [ Printf.sprintf "%.15g" f; Printf.sprintf "%.16g" f; Printf.sprintf "%.17g" f ]
  in
  if String.exists (function '.' | 'e' -> true | _ -> false) s then s
  else s ^ ".0"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f when Float.is_finite f -> Buffer.add_string b (float_repr f)
  | Float _ -> Buffer.add_string b "null"
  | String s -> add_escaped b s
  | List vs -> write_seq b '[' ']' (write b) vs
  | Obj fields ->
      write_seq b '{' '}'
        (fun (k, v) ->
          add_escaped b k;
          Buffer.add_char b ':';
          write b v)
        fields

and write_seq : 'a. Buffer.t -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun b op cl item xs ->
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      item x)
    xs;
  Buffer.add_char b cl

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Fail of string

type cursor = { s : string; mutable pos : int }

let fail c what = raise (Fail (Printf.sprintf "%s at offset %d" what c.pos))
let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None
let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  skip_ws c;
  if peek c = Some ch then advance c
  else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c "bad literal"

(* a \uXXXX escape, as UTF-8 (a surrogate encodes on its own) *)
let add_code_point c b =
  let hex = if c.pos + 4 <= String.length c.s then String.sub c.s c.pos 4 else "" in
  let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if String.length hex <> 4 || not (String.for_all is_hex hex) then
    fail c "bad \\u escape";
  c.pos <- c.pos + 4;
  let u = int_of_string ("0x" ^ hex) in
  let byte x = Buffer.add_char b (Char.chr x) in
  if u < 0x80 then byte u
  else if u < 0x800 then begin
    byte (0xc0 lor (u lsr 6));
    byte (0x80 lor (u land 0x3f))
  end
  else begin
    byte (0xe0 lor (u lsr 12));
    byte (0x80 lor ((u lsr 6) land 0x3f));
    byte (0x80 lor (u land 0x3f))
  end

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        let esc = peek c in
        advance c;
        (match esc with
        | Some (('"' | '\\' | '/') as ch) -> Buffer.add_char b ch
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'u' -> add_code_point c b
        | _ -> fail c "bad escape");
        go ()
    | Some ch when Char.code ch < 0x20 -> fail c "control byte in string"
    | Some ch ->
        Buffer.add_char b ch;
        advance c;
        go ()
  in
  go ();
  Buffer.contents b

(* -?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)? *)
let parse_number c =
  let start = c.pos in
  let digits () =
    let d0 = c.pos in
    while match peek c with Some '0' .. '9' -> true | _ -> false do
      advance c
    done;
    if c.pos = d0 then fail c "expected a digit"
  in
  let skip ch = if peek c = Some ch then advance c in
  skip '-';
  if peek c = Some '0' then advance c else digits ();
  let frac = peek c = Some '.' in
  if frac then begin
    advance c;
    digits ()
  end;
  let exp = match peek c with Some ('e' | 'E') -> true | _ -> false in
  if exp then begin
    advance c;
    if peek c = Some '+' then advance c else skip '-';
    digits ()
  end;
  let lit = String.sub c.s start (c.pos - start) in
  match if frac || exp then None else int_of_string_opt lit with
  | Some n -> Int n
  | None -> Float (float_of_string lit)

(* [item] parses one element; the sequence ends at [cl] *)
let parse_seq c cl item =
  skip_ws c;
  if peek c = Some cl then begin
    advance c;
    []
  end
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws c;
      match peek c with
      | Some ',' ->
          advance c;
          go acc
      | Some ch when ch = cl ->
          advance c;
          List.rev acc
      | _ -> fail c (Printf.sprintf "expected ',' or '%c'" cl)
    in
    go []

let rec parse_value c depth =
  if depth > 512 then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | Some '{' ->
      advance c;
      Obj
        (parse_seq c '}' (fun () ->
             let k = parse_string c in
             expect c ':';
             (k, parse_value c (depth + 1))))
  | Some '[' ->
      advance c;
      List (parse_seq c ']' (fun () -> parse_value c (depth + 1)))
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some _ -> fail c "unexpected byte"
  | None -> fail c "unexpected end of input"

let parse s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c 0 in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Reading fields                                                      *)
(* ------------------------------------------------------------------ *)

let member k = function
  | Obj fields -> Option.value ~default:Null (List.assoc_opt k fields)
  | _ -> Null

let to_int = function Int n -> n | Float f -> int_of_float f | _ -> 0
let to_float = function Float f -> f | Int n -> float_of_int n | _ -> 0.0
let to_str = function String s -> s | _ -> ""
let to_list = function List vs -> vs | _ -> []
