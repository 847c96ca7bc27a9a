(** OpenMP backend: lowers the restructurer's Cedar loop annotations to
    standard Fortran with OpenMP directives.  See the implementation
    header for the full directive mapping; the README "Targets" section
    has the user-facing table.  {!Fortran.Parser.parse_program} reads the
    output back into the Cedar AST; printing that again reproduces the
    text byte for byte. *)

val program_to_string : Fortran.Ast.program -> string
(** Print a whole program as Fortran + OpenMP directives. *)

val unit_to_string : Fortran.Ast.punit -> string
