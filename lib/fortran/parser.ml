(** Recursive-descent parser for fortran77 / Cedar Fortran.

    The lexer delivers one token list per logical statement line; this
    parser recognizes statement keywords positionally (Fortran has no
    reserved words).  Array references are distinguished from function
    calls using the declarations seen so far in the current program unit
    (undeclared names applied to arguments parse as calls, which also
    covers the intrinsics).

    The same front end reads the OpenMP dialect the OpenMP backend emits.
    Each directive becomes the Cedar construct it was lowered from:
    - [parallel do] is a [Cdoall] loop, [Cdoacross] with [ordered(1)];
    - [private]/[firstprivate] names are loop-locals, typed from the
      unit's declarations or implicitly; the [p = e] init of each
      firstprivate name, hoisted in front of the directive, moves back
      into the preamble.  An undeclared private that is a sequential DO
      index in the body stays out: a DO index is private to each worker
      already;
    - [reduction(op:v)] is the partial-accumulator machinery: a partial
      local [v_qN] (N counts per parse), its identity init in the
      preamble, the body accumulating into it, and a
      [lock(1)]/merge/[unlock(1)] postamble;
    - [critical (lkK)] / [end critical (lkK)] are [call lock(K)] /
      [call unlock(K)]; [ordered depend(sink: i - d)] is
      [call await(1, d)] and [ordered depend(source)] is
      [call advance(1)];
    - [threadprivate(/b/)] keeps common [b] task-local; in a text with any
      directive every other common is a [process common].
    Any other directive is an {!Error}. *)

open Ast

exception Error of string * int

let error lineno fmt =
  Printf.ksprintf (fun m -> raise (Error (m, lineno))) fmt

type state = {
  lines : Token.line array;
  mutable pos : int;
  mutable arrays : (string, int) Hashtbl.t;  (** array name -> rank *)
  (* set when a labeled-DO terminator line was consumed by an inner loop
     but outer loops sharing the label still need to close *)
  mutable closed_label : int option;
  omp : bool;  (** the text carries an [!$omp] line *)
  mutable decls : decl list;  (** the current unit's declarations *)
  mutable partials : int;  (** reduction partials named so far *)
}

let eof st = st.pos >= Array.length st.lines
let peek st = st.lines.(st.pos)
let advance st = st.pos <- st.pos + 1

let cur_lineno st = if eof st then -1 else (peek st).Token.lineno
let peek_tokens st = if eof st then [] else (peek st).Token.tokens

(* ------------------------------------------------------------------ *)
(* Expression parsing over a single line's token list                  *)
(* ------------------------------------------------------------------ *)

type cursor = { mutable toks : Token.t list; lineno : int }

let cpeek c = match c.toks with [] -> None | t :: _ -> Some t

let cnext c =
  match c.toks with
  | [] -> error c.lineno "unexpected end of statement"
  | t :: rest ->
      c.toks <- rest;
      t

let expect c tok what =
  let t = cnext c in
  if not (Token.equal t tok) then
    error c.lineno "expected %s, got %s" what (Token.to_string t)

let expect_ident c =
  match cnext c with
  | Token.Ident s -> s
  | t -> error c.lineno "expected identifier, got %s" (Token.to_string t)

let rec parse_expr st c = parse_or st c

and parse_or st c =
  let lhs = parse_and st c in
  match cpeek c with
  | Some Token.OpOr ->
      ignore (cnext c);
      Bin (Or, lhs, parse_or st c)
  | _ -> lhs

and parse_and st c =
  let lhs = parse_not st c in
  match cpeek c with
  | Some Token.OpAnd ->
      ignore (cnext c);
      Bin (And, lhs, parse_and st c)
  | _ -> lhs

and parse_not st c =
  match cpeek c with
  | Some Token.OpNot ->
      ignore (cnext c);
      Un (Not, parse_not st c)
  | _ -> parse_rel st c

and parse_rel st c =
  let lhs = parse_additive st c in
  let mk op =
    ignore (cnext c);
    Bin (op, lhs, parse_additive st c)
  in
  match cpeek c with
  | Some Token.OpEq -> mk Eq
  | Some Token.OpNe -> mk Ne
  | Some Token.OpLt -> mk Lt
  | Some Token.OpLe -> mk Le
  | Some Token.OpGt -> mk Gt
  | Some Token.OpGe -> mk Ge
  | _ -> lhs

and parse_additive st c =
  (* unary +/- binds looser than * in Fortran: -a*b = -(a*b); we fold the
     leading sign after parsing the first term, which gives the same result
     for the expressions we accept *)
  let neg, first =
    match cpeek c with
    | Some Token.Minus ->
        ignore (cnext c);
        (true, parse_term st c)
    | Some Token.Plus ->
        ignore (cnext c);
        (false, parse_term st c)
    | _ -> (false, parse_term st c)
  in
  let lhs = if neg then Un (Neg, first) else first in
  let rec loop lhs =
    match cpeek c with
    | Some Token.Plus ->
        ignore (cnext c);
        loop (Bin (Add, lhs, parse_term st c))
    | Some Token.Minus ->
        ignore (cnext c);
        loop (Bin (Sub, lhs, parse_term st c))
    | _ -> lhs
  in
  loop lhs

and parse_term st c =
  let rec loop lhs =
    match cpeek c with
    | Some Token.Star ->
        ignore (cnext c);
        loop (Bin (Mul, lhs, parse_factor st c))
    | Some Token.Slash ->
        ignore (cnext c);
        loop (Bin (Div, lhs, parse_factor st c))
    | _ -> lhs
  in
  loop (parse_factor st c)

and parse_factor st c =
  let base = parse_primary st c in
  match cpeek c with
  | Some Token.DStar ->
      ignore (cnext c);
      (* right-associative *)
      Bin (Pow, base, parse_factor st c)
  | _ -> base

and parse_primary st c =
  match cnext c with
  | Token.IntLit n -> Int n
  | Token.RealLit f -> Num f
  | Token.StrLit s -> Str s
  | Token.LogicLit b -> Bool b
  | Token.Minus -> Un (Neg, parse_factor st c)
  | Token.Plus -> parse_factor st c
  | Token.LParen ->
      let e = parse_expr st c in
      expect c Token.RParen ")";
      e
  | Token.Ident name -> (
      match cpeek c with
      | Some Token.LParen ->
          ignore (cnext c);
          parse_ref st c name
      | _ -> Var name)
  | t -> error c.lineno "unexpected token %s in expression" (Token.to_string t)

(* name '(' already consumed: array element, section, or call *)
and parse_ref st c name =
  let dims = ref [] in
  let finished = ref false in
  if cpeek c = Some Token.RParen then begin
    ignore (cnext c);
    finished := true
  end;
  while not !finished do
    let dim = parse_section_dim st c in
    dims := dim :: !dims;
    match cnext c with
    | Token.Comma -> ()
    | Token.RParen -> finished := true
    | t -> error c.lineno "expected , or ) got %s" (Token.to_string t)
  done;
  let dims = List.rev !dims in
  let has_range = List.exists (function Range _ -> true | Elem _ -> false) dims in
  if has_range then Section (name, dims)
  else
    let args = List.map (function Elem e -> e | Range _ -> assert false) dims in
    if Hashtbl.mem st.arrays name then Idx (name, args) else Call (name, args)

(* one position of a (possibly sectioned) reference: e | e:e | e:e:e | : *)
and parse_section_dim st c =
  let at_colon () = cpeek c = Some Token.Colon in
  let at_end () =
    match cpeek c with
    | Some Token.Comma | Some Token.RParen -> true
    | _ -> false
  in
  let lo = if at_colon () || at_end () then None else Some (parse_expr st c) in
  if not (at_colon ()) then
    match lo with
    | Some e -> Elem e
    | None -> error c.lineno "empty subscript"
  else begin
    ignore (cnext c);
    let hi = if at_colon () || at_end () then None else Some (parse_expr st c) in
    if at_colon () then begin
      ignore (cnext c);
      let step = if at_end () then None else Some (parse_expr st c) in
      Range (lo, hi, step)
    end
    else Range (lo, hi, None)
  end

(* ------------------------------------------------------------------ *)
(* Declaration statements                                              *)
(* ------------------------------------------------------------------ *)

let dtype_of_keyword = function
  | "integer" -> Some Integer
  | "real" -> Some Real
  | "logical" -> Some Logical
  | "character" -> Some Character
  | _ -> None

(* after the type keyword: name [ (dims) ] {, name [ (dims) ]} *)
let parse_decl_names st c ty vis =
  let decls = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let name = expect_ident c in
    let dims =
      match cpeek c with
      | Some Token.LParen ->
          ignore (cnext c);
          let ds = ref [] in
          let fin = ref false in
          while not !fin do
            (* each dim: expr | expr:expr | '*' *)
            let d =
              match cpeek c with
              | Some Token.Star ->
                  ignore (cnext c);
                  (Int 1, Int (-1)) (* assumed-size *)
              | _ ->
                  let e1 = parse_expr st c in
                  if cpeek c = Some Token.Colon then begin
                    ignore (cnext c);
                    let e2 = parse_expr st c in
                    (e1, e2)
                  end
                  else (Int 1, e1)
            in
            ds := d :: !ds;
            match cnext c with
            | Token.Comma -> ()
            | Token.RParen -> fin := true
            | t -> error c.lineno "bad dimension list: %s" (Token.to_string t)
          done;
          List.rev !ds
      | _ -> []
    in
    if dims <> [] then Hashtbl.replace st.arrays name (List.length dims);
    decls := { d_name = name; d_type = ty; d_dims = dims; d_vis = vis } :: !decls;
    match cpeek c with
    | Some Token.Comma -> ignore (cnext c)
    | None -> continue_ := false
    | Some t -> error c.lineno "unexpected %s in declaration" (Token.to_string t)
  done;
  List.rev !decls

(* ------------------------------------------------------------------ *)
(* Statement parsing                                                   *)
(* ------------------------------------------------------------------ *)

let loop_class_of_keyword = function
  | "do" -> Some Seq
  | "cdoall" -> Some Cdoall
  | "sdoall" -> Some Sdoall
  | "xdoall" -> Some Xdoall
  | "cdoacross" -> Some Cdoacross
  | "sdoacross" -> Some Sdoacross
  | "xdoacross" -> Some Xdoacross
  | _ -> None

let rest_cursor (line : Token.line) toks = { toks; lineno = line.Token.lineno }

(* i = lo, hi [, step] *)
let parse_do_header st c cls =
  let index = expect_ident c in
  expect c Token.Assign "=";
  let lo = parse_expr st c in
  expect c Token.Comma ",";
  let hi = parse_expr st c in
  let step =
    if cpeek c = Some Token.Comma then begin
      ignore (cnext c);
      Some (parse_expr st c)
    end
    else None
  in
  { index; lo; hi; step; cls; locals = [] }

(* '(' already consumed: name {, name} ')' *)
let parse_name_list c =
  let rec go acc =
    let n = expect_ident c in
    match cnext c with
    | Token.Comma -> go (n :: acc)
    | Token.RParen -> List.rev (n :: acc)
    | t -> error c.lineno "expected , or ) got %s" (Token.to_string t)
  in
  go []

(* does this line begin an END of the given loop class? accepts both
   "end xdoall" and "endxdoall" *)
let is_end_of_class cls (line : Token.line) =
  let kw = String.lowercase_ascii (loop_keyword cls) in
  match line.Token.tokens with
  | [ Token.Ident "end"; Token.Ident k ] -> k = kw
  | [ Token.Ident k ] -> k = "end" ^ kw
  | _ -> false

let is_kw (line : Token.line) k =
  match line.Token.tokens with Token.Ident k' :: _ -> k' = k | _ -> false

let is_kw2 (line : Token.line) k1 k2 =
  match line.Token.tokens with
  | Token.Ident a :: Token.Ident b :: _ -> a = k1 && b = k2
  | _ -> false

let is_exact (line : Token.line) ks =
  match line.Token.tokens with
  | ts -> (
      try List.for_all2 (fun t k -> Token.equal t (Token.Ident k)) ts ks
      with Invalid_argument _ -> false)

let rec parse_stmts st (stop : Token.line -> bool) : stmt list =
  let acc = ref [] in
  let fin = ref false in
  while not !fin do
    (* an inner labeled DO may have closed on a shared terminator that
       outer frames still need to observe *)
    (match st.closed_label with
    | Some l ->
        if (not (eof st)) && stop { Token.label = l; lineno = 0; tokens = [] }
        then fin := true
        else st.closed_label <- None
    | None -> ());
    if !fin then ()
    else if eof st then fin := true
    else if stop (peek st) then fin := true
    else
      match (peek st).Token.tokens with
      | Token.Omp :: Token.Ident "parallel" :: Token.Ident "do" :: clauses ->
          acc := parse_omp_do st !acc clauses
      | _ -> acc := parse_stmt st :: !acc
  done;
  List.rev !acc

and parse_stmt st : stmt =
  let line = peek st in
  let lbl = line.Token.label in
  let s = parse_stmt_nolabel st in
  if lbl <> 0 then Labeled (lbl, s) else s

and parse_stmt_nolabel st : stmt =
  let line = peek st in
  let ln = line.Token.lineno in
  match line.Token.tokens with
  | Token.Ident "do" :: Token.IntLit lbl :: rest ->
      advance st;
      parse_labeled_do st line lbl rest
  | Token.Ident kw :: rest when loop_class_of_keyword kw <> None ->
      advance st;
      let cls = Option.get (loop_class_of_keyword kw) in
      parse_block_do st line cls rest
  | Token.Ident "if" :: rest -> (
      advance st;
      let c = rest_cursor line rest in
      expect c Token.LParen "(";
      let cond = parse_expr st c in
      expect c Token.RParen ")";
      match cpeek c with
      | Some (Token.Ident "then") -> parse_block_if st cond
      | _ ->
          (* one-line logical IF *)
          let body = parse_inline_stmt st line c in
          If (cond, [ body ], []))
  | Token.Ident "where" :: rest -> (
      advance st;
      let c = rest_cursor line rest in
      expect c Token.LParen "(";
      let mask = parse_expr st c in
      expect c Token.RParen ")";
      match cpeek c with
      | None ->
          (* block WHERE *)
          let body =
            parse_stmts st (fun l ->
                is_exact l [ "endwhere" ] || is_exact l [ "end"; "where" ])
          in
          if eof st then error ln "missing ENDWHERE";
          advance st;
          Where (mask, body)
      | Some _ ->
          let s = parse_inline_stmt st line c in
          Where (mask, [ s ]))
  | Token.Ident "call" :: rest ->
      advance st;
      let c = rest_cursor line rest in
      parse_call st c
  | Token.Omp :: rest ->
      advance st;
      parse_directive st line rest
  | [ Token.Ident "return" ] ->
      advance st;
      Return
  | [ Token.Ident "stop" ] ->
      advance st;
      Stop
  | [ Token.Ident "continue" ] ->
      advance st;
      Continue
  | Token.Ident "goto" :: [ Token.IntLit n ] ->
      advance st;
      Goto n
  | Token.Ident "go" :: Token.Ident "to" :: [ Token.IntLit n ] ->
      advance st;
      Goto n
  | Token.Ident "print" :: Token.Star :: rest ->
      advance st;
      let c = rest_cursor line rest in
      let args =
        match cpeek c with
        | None -> []
        | Some Token.Comma ->
            ignore (cnext c);
            parse_expr_list st c
        | Some _ -> error ln "expected , after print *"
      in
      Print args
  | Token.Ident "write" :: Token.LParen :: Token.Star :: Token.Comma
    :: Token.Star :: Token.RParen :: rest ->
      advance st;
      let c = rest_cursor line rest in
      let args = if cpeek c = None then [] else parse_expr_list st c in
      Print args
  | Token.Ident "read" :: Token.Star :: Token.Comma :: rest
  | Token.Ident "read" :: Token.LParen :: Token.Star :: Token.Comma
    :: Token.Star :: Token.RParen :: rest ->
      advance st;
      let c = rest_cursor line rest in
      let ls = ref [ parse_lhs st c ] in
      while cpeek c = Some Token.Comma do
        ignore (cnext c);
        ls := parse_lhs st c :: !ls
      done;
      Read (List.rev !ls)
  | _ ->
      (* assignment *)
      advance st;
      let c = rest_cursor line line.Token.tokens in
      let lhs = parse_lhs st c in
      expect c Token.Assign "=";
      let rhs = parse_expr st c in
      (match cpeek c with
      | None -> ()
      | Some t -> error ln "trailing token %s after assignment" (Token.to_string t));
      Assign (lhs, rhs)

(* a statement embedded after IF(...) or WHERE(...) on the same line *)
and parse_inline_stmt st line c : stmt =
  match cpeek c with
  | Some (Token.Ident "call") ->
      ignore (cnext c);
      parse_call st c
  | Some (Token.Ident "goto") -> (
      ignore (cnext c);
      match cnext c with
      | Token.IntLit n -> Goto n
      | t -> error line.Token.lineno "goto %s" (Token.to_string t))
  | Some (Token.Ident "return") ->
      ignore (cnext c);
      Return
  | Some (Token.Ident "stop") ->
      ignore (cnext c);
      Stop
  | Some (Token.Ident "print") ->
      ignore (cnext c);
      expect c Token.Star "*";
      let args =
        match cpeek c with
        | None -> []
        | Some Token.Comma ->
            ignore (cnext c);
            parse_expr_list st c
        | Some _ -> error line.Token.lineno "bad print"
      in
      Print args
  | Some _ ->
      let lhs = parse_lhs st c in
      expect c Token.Assign "=";
      let rhs = parse_expr st c in
      Assign (lhs, rhs)
  | None -> error line.Token.lineno "missing statement after IF(...)"

and parse_call st c =
  let name = expect_ident c in
  let args =
    match cpeek c with
    | Some Token.LParen ->
        ignore (cnext c);
        if cpeek c = Some Token.RParen then begin
          ignore (cnext c);
          []
        end
        else begin
          let args = parse_expr_list st c in
          expect c Token.RParen ")";
          args
        end
    | _ -> []
  in
  CallSt (name, args)

and parse_expr_list st c =
  let acc = ref [ parse_expr st c ] in
  while cpeek c = Some Token.Comma do
    ignore (cnext c);
    acc := parse_expr st c :: !acc
  done;
  List.rev !acc

and parse_lhs st c : lhs =
  let name = expect_ident c in
  match cpeek c with
  | Some Token.LParen -> (
      ignore (cnext c);
      match parse_ref st c name with
      | Idx (n, args) -> LIdx (n, args)
      | Section (n, dims) -> LSection (n, dims)
      | Call (n, args) ->
          (* an assignment to an undeclared array: register it *)
          Hashtbl.replace st.arrays n (List.length args);
          LIdx (n, args)
      | _ -> assert false)
  | _ -> LVar name

(* DO hdr already consumed; block form ends with ENDDO / END DO, or for
   concurrent classes with END <CLS>; may carry local decls / LOOP /
   ENDLOOP structure (Cedar) *)
and parse_block_do st line cls rest =
  let h = parse_do_header st (rest_cursor line rest) cls in
  if cls = Seq then Do (h, seq_block (parse_enddo_body st line))
  else
    (* local declarations *)
    let locals = ref [] in
    let rec scan_locals () =
      if eof st then ()
      else
        let l = peek st in
        match l.Token.tokens with
        | Token.Ident kw :: rest when dtype_of_keyword kw <> None ->
            advance st;
            let c = rest_cursor l rest in
            locals :=
              !locals
              @ parse_decl_names st c (Option.get (dtype_of_keyword kw)) Default;
            scan_locals ()
        | Token.Ident "double" :: Token.Ident "precision" :: rest ->
            advance st;
            let c = rest_cursor l rest in
            locals := !locals @ parse_decl_names st c Double Default;
            scan_locals ()
        | _ -> ()
    in
    scan_locals ();
    let stop l = is_exact l [ "loop" ] || is_end_of_class cls l in
    let first = parse_stmts st stop in
    if eof st then error line.Token.lineno "missing END %s" (loop_keyword cls);
    let blk =
      if is_exact (peek st) [ "loop" ] then begin
        advance st;
        let body = parse_stmts st (fun l -> is_exact l [ "endloop" ]) in
        if eof st then error line.Token.lineno "missing ENDLOOP";
        advance st;
        let post = parse_stmts st (fun l -> is_end_of_class cls l) in
        if eof st then
          error line.Token.lineno "missing END %s" (loop_keyword cls);
        advance st;
        { preamble = first; body; postamble = post }
      end
      else begin
        advance st;
        { preamble = []; body = first; postamble = [] }
      end
    in
    Do ({ h with locals = !locals }, blk)

(* DO <label> i = ... : terminated by the line carrying <label> *)
and parse_labeled_do st line lbl rest =
  let h = parse_do_header st (rest_cursor line rest) Seq in
  let body = parse_stmts st (fun l -> l.Token.label = lbl) in
  let body =
    match st.closed_label with
    | Some l when l = lbl ->
        (* terminator already consumed by an inner loop sharing the label *)
        body
    | _ ->
        if eof st then error line.Token.lineno "missing terminator label %d" lbl;
        let term = parse_stmt st in
        st.closed_label <- Some lbl;
        body @ [ term ]
  in
  Do (h, seq_block body)

(* the body of a block DO whose header was consumed, through its ENDDO *)
and parse_enddo_body st line =
  let body =
    parse_stmts st (fun l -> is_exact l [ "enddo" ] || is_exact l [ "end"; "do" ])
  in
  if eof st then error line.Token.lineno "missing ENDDO";
  advance st;
  body

(* [!$omp parallel do <clauses>], the DO it opens and an optional
   [!$omp end parallel do]; [acc] is the enclosing statement list so far,
   newest first, from which the firstprivate inits are taken back *)
and parse_omp_do st acc clauses =
  let line = peek st in
  let ln = line.Token.lineno in
  advance st;
  let c = rest_cursor line clauses in
  let ordered = ref false and privates = ref [] and firsts = ref [] in
  let reds = ref [] in
  while cpeek c <> None do
    match cnext c with
    | Token.Ident "ordered" ->
        ordered := true;
        expect c Token.LParen "(";
        expect c (Token.IntLit 1) "1";
        expect c Token.RParen ")"
    | Token.Ident "private" ->
        expect c Token.LParen "(";
        privates := !privates @ parse_name_list c
    | Token.Ident "firstprivate" ->
        expect c Token.LParen "(";
        firsts := !firsts @ parse_name_list c
    | Token.Ident "reduction" ->
        expect c Token.LParen "(";
        let spelling =
          match cnext c with
          | Token.Plus -> "+"
          | Token.Star -> "*"
          | t -> Token.to_string t
        in
        let op =
          match Reduction.op_of_clause spelling with
          | Some op -> op
          | None -> error ln "unsupported reduction operator %s" spelling
        in
        expect c Token.Colon ":";
        reds := !reds @ List.map (fun v -> (op, v)) (parse_name_list c)
    | t -> error ln "unsupported parallel do clause %s" (Token.to_string t)
  done;
  let h, body =
    match peek_tokens st with
    | Token.Ident "do" :: (Token.Ident _ :: _ as rest)
      when (peek st).Token.label = 0 ->
        let do_line = peek st in
        advance st;
        let cls = if !ordered then Cdoacross else Cdoall in
        let h = parse_do_header st (rest_cursor do_line rest) cls in
        (h, parse_enddo_body st do_line)
    | _ -> error ln "!$omp parallel do is not followed by a block DO"
  in
  if peek_tokens st = Token.[ Omp; Ident "end"; Ident "parallel"; Ident "do" ]
  then advance st;
  let declared v = List.find_opt (fun d -> d.d_name = v) st.decls in
  let local v =
    match declared v with
    | Some d -> { d with d_vis = Default }
    | None ->
        let d_type = Symbols.implicit_type v in
        { d_name = v; d_type; d_dims = []; d_vis = Default }
  in
  let seq_index v =
    Ast_utils.exists_stmt
      (function Do (h, _) -> h.cls = Seq && h.index = v | _ -> false)
      body
  in
  let privates =
    List.filter (fun v -> declared v <> None || not (seq_index v)) !privates
  in
  (* the firstprivate inits were hoisted just in front of the directive *)
  let acc, inits =
    List.fold_left
      (fun (acc, inits) v ->
        match acc with
        | (Assign (LVar v', _) as init) :: acc when v' = v ->
            (acc, init :: inits)
        | _ -> error ln "firstprivate(%s): no init just before the directive" v)
      (acc, []) (List.rev !firsts)
  in
  let partials =
    List.map
      (fun (op, v) ->
        let d = local v in
        if d.d_dims <> [] then error ln "reduction(%s) on an array" v;
        st.partials <- st.partials + 1;
        (op, v, { d with d_name = Printf.sprintf "%s_q%d" v st.partials }))
      !reds
  in
  let merges =
    List.map
      (fun (op, v, p) ->
        Assign (LVar v, Reduction.combine_expr op (Var v) (Var p.d_name)))
      partials
  in
  let blk =
    {
      preamble =
        inits
        @ List.map
            (fun (op, _, p) ->
              Assign (LVar p.d_name, Reduction.identity_of op ~ty:p.d_type))
            partials;
      body =
        List.fold_left
          (fun b (_, v, p) -> Ast_utils.rename_scalar v p.d_name b)
          body partials;
      postamble =
        (if merges = [] then []
         else
           (CallSt ("lock", [ Int 1 ]) :: merges)
           @ [ CallSt ("unlock", [ Int 1 ]) ]);
    }
  in
  let locals =
    List.map local (privates @ !firsts) @ List.map (fun (_, _, p) -> p) partials
  in
  Do ({ h with locals }, blk) :: acc

(* a directive line that stands for one statement *)
and parse_directive st line toks =
  let ln = line.Token.lineno in
  let lock_id = function
    | [ Token.LParen; Token.Ident name; Token.RParen ] -> (
        match Scanf.sscanf_opt name "lk%d%!" Fun.id with
        | Some k -> Int k
        | None -> Int 1)
    | _ -> Int 1
  in
  match toks with
  | Token.Ident "critical" :: name -> CallSt ("lock", [ lock_id name ])
  | Token.Ident "end" :: Token.Ident "critical" :: name ->
      CallSt ("unlock", [ lock_id name ])
  | [ Token.Ident "ordered"; Token.Ident "depend"; Token.LParen;
      Token.Ident "source"; Token.RParen ] ->
      CallSt ("advance", [ Int 1 ])
  | Token.Ident "ordered" :: Token.Ident "depend" :: Token.LParen
    :: Token.Ident "sink" :: Token.Colon :: Token.Ident _ :: Token.Minus :: rest
    ->
      let c = rest_cursor line rest in
      let d = parse_expr st c in
      expect c Token.RParen ")";
      CallSt ("await", [ Int 1; d ])
  | _ ->
      error ln "unsupported !$omp directive:%s"
        (String.concat "" (List.map (fun t -> " " ^ Token.to_string t) toks))

and parse_block_if st cond =
  let stop l =
    is_exact l [ "endif" ] || is_exact l [ "end"; "if" ] || is_kw l "else"
    || is_kw2 l "elseif" "" || is_kw l "elseif"
  in
  let then_branch = parse_stmts st stop in
  if eof st then error (cur_lineno st) "missing ENDIF";
  let line = peek st in
  if is_exact line [ "endif" ] || is_exact line [ "end"; "if" ] then begin
    advance st;
    If (cond, then_branch, [])
  end
  else if is_kw line "elseif" || is_kw2 line "else" "if" then begin
    advance st;
    let toks =
      match line.Token.tokens with
      | Token.Ident "elseif" :: r -> r
      | Token.Ident "else" :: Token.Ident "if" :: r -> r
      | _ -> assert false
    in
    let c = rest_cursor line toks in
    expect c Token.LParen "(";
    let cond2 = parse_expr st c in
    expect c Token.RParen ")";
    (match cpeek c with
    | Some (Token.Ident "then") -> ()
    | _ -> error line.Token.lineno "expected THEN after ELSE IF (...)");
    let nested = parse_block_if st cond2 in
    If (cond, then_branch, [ nested ])
  end
  else begin
    (* else: but careful, "else if" handled above via is_kw "else" - need
       to distinguish plain ELSE from ELSE IF *)
    match line.Token.tokens with
    | [ Token.Ident "else" ] ->
        advance st;
        let else_branch =
          parse_stmts st (fun l ->
              is_exact l [ "endif" ] || is_exact l [ "end"; "if" ])
        in
        if eof st then error line.Token.lineno "missing ENDIF";
        advance st;
        If (cond, then_branch, else_branch)
    | Token.Ident "else" :: Token.Ident "if" :: _ ->
        (* handled in branch above; unreachable *)
        assert false
    | _ -> error line.Token.lineno "expected ELSE or ENDIF"
  end

(* ------------------------------------------------------------------ *)
(* Program units                                                       *)
(* ------------------------------------------------------------------ *)

let parse_formals c =
  match cpeek c with
  | Some Token.LParen ->
      ignore (cnext c);
      if cpeek c = Some Token.RParen then begin
        ignore (cnext c);
        []
      end
      else begin
        let acc = ref [ expect_ident c ] in
        while cpeek c = Some Token.Comma do
          ignore (cnext c);
          acc := expect_ident c :: !acc
        done;
        expect c Token.RParen ")";
        List.rev !acc
      end
  | _ -> []

let parse_unit st : punit =
  st.arrays <- Hashtbl.create 16;
  let line = peek st in
  let ln = line.Token.lineno in
  let name, kind =
    match line.Token.tokens with
    | Token.Ident "program" :: [ Token.Ident n ] ->
        advance st;
        (n, Program)
    | Token.Ident "subroutine" :: Token.Ident n :: rest ->
        advance st;
        let c = rest_cursor line rest in
        (n, Subroutine (parse_formals c))
    | Token.Ident "function" :: Token.Ident n :: rest ->
        advance st;
        let c = rest_cursor line rest in
        (n, Function (Real, parse_formals c))
    | Token.Ident ty :: Token.Ident "function" :: Token.Ident n :: rest
      when dtype_of_keyword ty <> None ->
        advance st;
        let c = rest_cursor line rest in
        (n, Function (Option.get (dtype_of_keyword ty), parse_formals c))
    | Token.Ident "double" :: Token.Ident "precision" :: Token.Ident "function"
      :: Token.Ident n :: rest ->
        advance st;
        let c = rest_cursor line rest in
        (n, Function (Double, parse_formals c))
    | _ -> error ln "expected PROGRAM, SUBROUTINE or FUNCTION"
  in
  let decls = ref [] in
  let commons = ref [] in
  let equivs = ref [] in
  let params = ref [] in
  let threadprivate = ref [] in
  (* declaration section *)
  let parse_common_vars c process =
    let cname =
      if cpeek c = Some Token.Slash then begin
        ignore (cnext c);
        let n = expect_ident c in
        expect c Token.Slash "/";
        n
      end
      else ""
    in
    let vars = ref [ expect_ident c ] in
    (* skip any dims appearing in common decls: common /b/ a(10) *)
    let skip_dims () =
      if cpeek c = Some Token.LParen then begin
        let depth = ref 0 in
        let fin = ref false in
        while not !fin do
          match cnext c with
          | Token.LParen -> incr depth
          | Token.RParen ->
              decr depth;
              if !depth = 0 then fin := true
          | _ -> ()
        done
      end
    in
    skip_dims ();
    while cpeek c = Some Token.Comma do
      ignore (cnext c);
      vars := expect_ident c :: !vars;
      skip_dims ()
    done;
    commons :=
      { c_name = cname; c_vars = List.rev !vars; c_process = process }
      :: !commons
  in
  let rec decl_loop () =
    if eof st then ()
    else
      let l = peek st in
      let continue_decl c =
        decl_loop c;
        ()
      in
      ignore continue_decl;
      match l.Token.tokens with
      | Token.Ident kw :: rest when dtype_of_keyword kw <> None -> (
          (* could be "real function..." caught above, or a decl; also
             guard against "real x" executable?? no: decls first. But an
             assignment like "realvar = 1" lexes as single ident, fine *)
          match rest with
          | Token.Ident _ :: _ | [] ->
              advance st;
              let c = rest_cursor l rest in
              decls :=
                !decls
                @ parse_decl_names st c (Option.get (dtype_of_keyword kw)) Default;
              decl_loop ()
          | _ -> ())
      | Token.Ident "double" :: Token.Ident "precision" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          decls := !decls @ parse_decl_names st c Double Default;
          decl_loop ()
      | Token.Ident "dimension" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          decls := !decls @ parse_decl_names st c Real Default;
          decl_loop ()
      | Token.Ident "global" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          let names = ref [ expect_ident c ] in
          while cpeek c = Some Token.Comma do
            ignore (cnext c);
            names := expect_ident c :: !names
          done;
          List.iter
            (fun n ->
              decls :=
                !decls @ [ { d_name = n; d_type = Real; d_dims = []; d_vis = Global } ])
            (List.rev !names);
          decl_loop ()
      | Token.Ident "cluster" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          let names = ref [ expect_ident c ] in
          while cpeek c = Some Token.Comma do
            ignore (cnext c);
            names := expect_ident c :: !names
          done;
          List.iter
            (fun n ->
              decls :=
                !decls
                @ [ { d_name = n; d_type = Real; d_dims = []; d_vis = Cluster } ])
            (List.rev !names);
          decl_loop ()
      | Token.Ident "common" :: rest ->
          advance st;
          parse_common_vars (rest_cursor l rest) false;
          decl_loop ()
      | Token.Ident "process" :: Token.Ident "common" :: rest ->
          advance st;
          parse_common_vars (rest_cursor l rest) true;
          decl_loop ()
      | Token.Ident "parameter" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          expect c Token.LParen "(";
          let fin = ref false in
          while not !fin do
            let n = expect_ident c in
            expect c Token.Assign "=";
            let e = parse_expr st c in
            params := (n, e) :: !params;
            match cnext c with
            | Token.Comma -> ()
            | Token.RParen -> fin := true
            | t -> error l.Token.lineno "bad PARAMETER: %s" (Token.to_string t)
          done;
          decl_loop ()
      | Token.Ident "equivalence" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          let groups = ref [] in
          let fin = ref false in
          while not !fin do
            expect c Token.LParen "(";
            let names = ref [] in
            let gfin = ref false in
            while not !gfin do
              let n = expect_ident c in
              (* skip element subscripts *)
              if cpeek c = Some Token.LParen then begin
                let depth = ref 0 in
                let dfin = ref false in
                while not !dfin do
                  match cnext c with
                  | Token.LParen -> incr depth
                  | Token.RParen ->
                      decr depth;
                      if !depth = 0 then dfin := true
                  | _ -> ()
                done
              end;
              names := n :: !names;
              match cnext c with
              | Token.Comma -> ()
              | Token.RParen -> gfin := true
              | t -> error l.Token.lineno "bad EQUIVALENCE: %s" (Token.to_string t)
            done;
            (match List.rev !names with
            | a :: rest -> groups := List.map (fun b -> (a, b)) rest :: !groups
            | [] -> ());
            if cpeek c = Some Token.Comma then ignore (cnext c) else fin := true
          done;
          equivs := !equivs @ List.rev !groups;
          decl_loop ()
      | Token.Ident "implicit" :: _ ->
          advance st;
          decl_loop ()
      | Token.Omp :: Token.Ident "threadprivate" :: rest ->
          advance st;
          let c = rest_cursor l rest in
          expect c Token.LParen "(";
          let rec blocks () =
            expect c Token.Slash "/";
            threadprivate := expect_ident c :: !threadprivate;
            expect c Token.Slash "/";
            match cnext c with
            | Token.Comma -> blocks ()
            | Token.RParen -> ()
            | t -> error l.Token.lineno "bad threadprivate: %s" (Token.to_string t)
          in
          blocks ();
          decl_loop ()
      | _ -> ()
  in
  decl_loop ();
  st.decls <- !decls;
  let body = parse_stmts st (fun l -> is_exact l [ "end" ]) in
  if eof st then error ln "missing END for unit %s" name;
  advance st;
  {
    u_name = name;
    u_kind = kind;
    u_decls = !decls;
    u_commons =
      List.rev_map
        (fun cb ->
          if st.omp && not (List.mem cb.c_name !threadprivate) then
            { cb with c_process = true }
          else cb)
        !commons;
    u_equivs = !equivs;
    u_params = List.rev !params;
    u_body = body;
  }

(** Parse a complete source file into program units. *)
let parse_program src : program =
  let lines = Array.of_list (Lexer.lex src) in
  let omp =
    Array.exists
      (fun l -> match l.Token.tokens with Token.Omp :: _ -> true | _ -> false)
      lines
  in
  let st =
    {
      lines;
      pos = 0;
      arrays = Hashtbl.create 16;
      closed_label = None;
      omp;
      decls = [];
      partials = 0;
    }
  in
  let units = ref [] in
  while not (eof st) do
    units := parse_unit st :: !units
  done;
  List.rev !units

(** Parse a single expression, for tests and tools.  Bypasses the
    logical-line layer so a leading integer is a literal, not a label. *)
let parse_expr_string src : expr =
  let toks = Lexer.tokenize_line 1 src in
  let st =
    {
      lines = [||];
      pos = 0;
      arrays = Hashtbl.create 1;
      closed_label = None;
      omp = false;
      decls = [];
      partials = 0;
    }
  in
  let c = { toks; lineno = 1 } in
  let e = parse_expr st c in
  (match cpeek c with
  | None -> ()
  | Some t -> error 1 "trailing token %s in expression" (Token.to_string t));
  e
