(** Recursive-descent parser for fortran77 / Cedar Fortran, and the one
    front end for the OpenMP dialect too: each [!$omp] directive the
    OpenMP backend emits reads as the Cedar construct it lowers (see the
    implementation header for the mapping); any other directive is an
    {!Error}.

    Statements are recognized positionally (Fortran has no reserved
    words); array references are distinguished from function calls using
    the declarations seen so far in the current program unit. *)

exception Error of string * int
(** [Error (message, line)] — syntax error. *)

val parse_program : string -> Ast.program
(** Parse a complete source file into program units.
    @raise Error on syntax errors
    @raise Lexer.Error on lexical errors *)

val parse_expr_string : string -> Ast.expr
(** Parse a single expression (tests and tools); bypasses the
    logical-line layer, so a leading integer is a literal, not a label. *)
