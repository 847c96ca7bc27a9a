(** Lexer for fortran77 / Cedar Fortran source.

    Accepts a pragmatic mix of fixed and free form:
    - comment lines start with [c], [C], [*] or [!] in column one, or are
      blank; trailing [!] comments are stripped outside strings;
    - a statement label is an integer at the start of a line;
    - continuations: a trailing [&], a leading [&], or any non-blank,
      non-label character in column 6 of a line whose columns 1-5 are blank
      (classic fixed form);
    - keywords must be blank-separated from what follows ([DO 10 I] yes,
      [DO10I] no), which every source in this repository satisfies;
    - a line whose first non-blank text is [!$omp] (any case, column 1 or
      indented) is not a comment but an OpenMP directive: a logical line
      of its own whose tokens start with {!Token.Omp}. *)

exception Error of string * int  (** message, line number *)

let error lineno fmt = Printf.ksprintf (fun m -> raise (Error (m, lineno))) fmt

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* Strip a trailing '!' comment, respecting '...' strings. *)
let strip_bang_comment s =
  let n = String.length s in
  let rec scan i in_str =
    if i >= n then s
    else
      match s.[i] with
      | '\'' -> scan (i + 1) (not in_str)
      | '!' when not in_str -> String.sub s 0 i
      | _ -> scan (i + 1) in_str
  in
  scan 0 false

let is_comment_line s =
  String.length s = 0
  || (match s.[0] with 'c' | 'C' | '*' | '!' -> true | _ -> false)
  || String.trim s = ""

let sentinel = "!$omp"

(* The text after the sentinel of a directive line, trailing comment
   stripped. *)
let directive raw =
  let n = String.length raw and k = String.length sentinel in
  let i = ref 0 in
  while !i < n && (raw.[!i] = ' ' || raw.[!i] = '\t') do
    incr i
  done;
  if !i + k <= n && raw.[!i] = '!'
     && String.lowercase_ascii (String.sub raw !i k) = sentinel
  then Some (strip_bang_comment (String.sub raw (!i + k) (n - !i - k)))
  else None

(* Fixed-form continuation: columns 1-5 blank, column 6 non-blank non-'0'. *)
let is_fixed_continuation s =
  String.length s >= 6
  && (let ok = ref true in
      for i = 0 to 4 do
        if s.[i] <> ' ' then ok := false
      done;
      !ok)
  && s.[5] <> ' ' && s.[5] <> '0'

(* Split source text into logical lines: (label, lineno, text). *)
let logical_lines src =
  let physical = String.split_on_char '\n' src in
  let rec build acc cur = function
    | [] -> List.rev (match cur with None -> acc | Some c -> c :: acc)
    | (lineno, raw) :: rest -> (
        match directive raw with
        | Some d ->
            let acc = match cur with None -> acc | Some c -> c :: acc in
            build ((0, lineno, sentinel ^ d) :: acc) None rest
        | None ->
        if is_comment_line raw then build acc cur rest
        else
          let line = strip_bang_comment raw in
          if String.trim line = "" then build acc cur rest
          else if is_fixed_continuation line && cur <> None then
            let tail = String.sub line 6 (String.length line - 6) in
            let cont =
              match cur with
              | Some (lbl, ln, text) -> Some (lbl, ln, text ^ " " ^ tail)
              | None -> assert false
            in
            build acc cont rest
          else
            let trimmed = String.trim line in
            if String.length trimmed > 0 && trimmed.[0] = '&' && cur <> None
            then
              let tail = String.sub trimmed 1 (String.length trimmed - 1) in
              let cont =
                match cur with
                | Some (lbl, ln, text) -> Some (lbl, ln, text ^ " " ^ tail)
                | None -> assert false
              in
              build acc cont rest
            else
              (* extract label *)
              let lbl, body =
                let i = ref 0 in
                let n = String.length trimmed in
                while !i < n && is_digit trimmed.[!i] do
                  incr i
                done;
                if !i > 0 && !i < n && trimmed.[!i] = ' ' then
                  ( int_of_string (String.sub trimmed 0 !i),
                    String.sub trimmed !i (n - !i) )
                else (0, trimmed)
              in
              (* trailing '&' continuation marker *)
              let body = String.trim body in
              let acc = match cur with None -> acc | Some c -> c :: acc in
              build acc (Some (lbl, lineno, body)) rest)
  in
  let numbered = List.mapi (fun i l -> (i + 1, l)) physical in
  (* splice trailing '&' *)
  let lines = build [] None numbered in
  let rec splice = function
    | [] -> []
    | (lbl, ln, text) :: rest ->
        let text = String.trim text in
        let n = String.length text in
        if n > 0 && text.[n - 1] = '&' then (
          match splice rest with
          | (0, _, next) :: rest' ->
              splice ((lbl, ln, String.sub text 0 (n - 1) ^ " " ^ next) :: rest')
          | _ -> error ln "dangling continuation '&'")
        else (lbl, ln, text) :: splice rest
  in
  splice lines

(* Tokenize one logical line body. *)
let tokenize_line lineno s =
  let n = String.length s in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit s.[!i + 1]) then begin
      (* numeric literal: integer, or real with . e E d D exponent *)
      let start = !i in
      let seen_dot = ref false and seen_exp = ref false in
      let continue_num () =
        if !i >= n then false
        else
          let c = s.[!i] in
          if is_digit c then true
          else if c = '.' && (not !seen_dot) && not !seen_exp then begin
            (* ".and." etc must not swallow: a dot followed by a letter
               terminates the number *)
            if !i + 1 < n && is_alpha s.[!i + 1] then false
            else begin
              seen_dot := true;
              true
            end
          end
          else if
            (c = 'e' || c = 'E' || c = 'd' || c = 'D')
            && (not !seen_exp)
            && !i + 1 < n
            && (is_digit s.[!i + 1]
               || ((s.[!i + 1] = '+' || s.[!i + 1] = '-')
                  && !i + 2 < n && is_digit s.[!i + 2]))
          then begin
            seen_exp := true;
            incr i;
            (* skip sign *)
            if !i < n && (s.[!i] = '+' || s.[!i] = '-') then incr i;
            decr i;
            (* compensate the generic incr below *)
            true
          end
          else false
      in
      while continue_num () do
        incr i
      done;
      let text = String.sub s start (!i - start) in
      if !seen_dot || !seen_exp then
        let text =
          String.map (fun c -> if c = 'd' || c = 'D' then 'e' else c) text
        in
        push (Token.RealLit (float_of_string text))
      else push (Token.IntLit (int_of_string text))
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_alnum s.[!i] do
        incr i
      done;
      push (Token.Ident (String.lowercase_ascii (String.sub s start (!i - start))))
    end
    else if c = '\'' then begin
      incr i;
      let buf = Buffer.create 16 in
      let fin = ref false in
      while not !fin do
        if !i >= n then error lineno "unterminated string literal"
        else if s.[!i] = '\'' then
          if !i + 1 < n && s.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            fin := true;
            incr i
          end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      push (Token.StrLit (Buffer.contents buf))
    end
    else if c = '.' then begin
      (* dotted operator or logical literal *)
      let j = ref (!i + 1) in
      while !j < n && is_alpha s.[!j] do
        incr j
      done;
      if !j < n && s.[!j] = '.' then begin
        let word = String.lowercase_ascii (String.sub s (!i + 1) (!j - !i - 1)) in
        i := !j + 1;
        match word with
        | "eq" -> push Token.OpEq
        | "ne" -> push Token.OpNe
        | "lt" -> push Token.OpLt
        | "le" -> push Token.OpLe
        | "gt" -> push Token.OpGt
        | "ge" -> push Token.OpGe
        | "and" -> push Token.OpAnd
        | "or" -> push Token.OpOr
        | "not" -> push Token.OpNot
        | "true" -> push (Token.LogicLit true)
        | "false" -> push (Token.LogicLit false)
        | w -> error lineno "unknown dotted operator .%s." w
      end
      else error lineno "stray '.'"
    end
    else begin
      incr i;
      match c with
      | '+' -> push Token.Plus
      | '-' -> push Token.Minus
      | '*' ->
          if !i < n && s.[!i] = '*' then begin
            incr i;
            push Token.DStar
          end
          else push Token.Star
      | '/' ->
          if !i < n && s.[!i] = '=' then begin
            incr i;
            push Token.OpNe
          end
          else push Token.Slash
      | '(' -> push Token.LParen
      | ')' -> push Token.RParen
      | ',' -> push Token.Comma
      | ':' -> push Token.Colon
      | '=' ->
          if !i < n && s.[!i] = '=' then begin
            incr i;
            push Token.OpEq
          end
          else push Token.Assign
      | '<' ->
          if !i < n && s.[!i] = '=' then begin
            incr i;
            push Token.OpLe
          end
          else push Token.OpLt
      | '>' ->
          if !i < n && s.[!i] = '=' then begin
            incr i;
            push Token.OpGe
          end
          else push Token.OpGt
      | c -> error lineno "unexpected character %c" c
    end
  done;
  List.rev !toks

(** Lex a whole source text into labeled token lines.  Statement text
    never starts with ['!'] (a bang begins a comment), so the sentinel
    marks exactly the directive lines. *)
let lex src : Token.line list =
  let n = String.length sentinel in
  logical_lines src
  |> List.map (fun (label, lineno, text) ->
         let tokens =
           if String.starts_with ~prefix:sentinel text then
             Token.Omp
             :: tokenize_line lineno (String.sub text n (String.length text - n))
           else tokenize_line lineno text
         in
         { Token.label; lineno; tokens })
