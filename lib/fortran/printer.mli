(** Cedar Fortran source printer.

    Output re-parses with {!Parser.parse_program}; the property tests
    rely on the round trip.  Expression/line primitives are re-exported
    from {!Emit}, the layer shared with non-Cedar codegen backends. *)

val expr_str : Ast.expr -> string
val lhs_str : Ast.lhs -> string
val decl_line : Ast.decl -> string

val emit_stmt : Buffer.t -> int -> Ast.stmt -> unit
(** Append one statement (recursively) at the given indent level. *)

val emit_unit : Buffer.t -> Ast.punit -> unit

val unit_to_string : Ast.punit -> string

val program_to_string : Ast.program -> string
(** Print a whole program as Cedar Fortran source text. *)
