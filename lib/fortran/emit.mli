(** Line- and expression-level emission core shared by every codegen
    backend ({!Printer} for Cedar Fortran, the OpenMP backend in
    [lib/codegen]).  Precedence-aware expression printing lives only
    here, so backends cannot drift on expression syntax. *)

val expr_str : Ast.expr -> string
val lhs_str : Ast.lhs -> string
val dtype_str : Ast.dtype -> string
val decl_line : Ast.decl -> string

val emit_line : Buffer.t -> ?label:int -> int -> string -> unit
(** [emit_line buf ~label indent text] appends one fixed-form-ish source
    line: a 4-digit label field (or six blanks), two spaces per indent
    level, the text, a newline. *)
