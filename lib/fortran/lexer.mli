(** Lexer for fortran77 / Cedar Fortran source: accepts a pragmatic mix
    of fixed form (column-6 continuations, label fields, [c]/[*] comment
    lines) and free form ([&] continuations, [!] comments).  A line that
    starts with [!$omp] is an OpenMP directive, not a comment: its tokens
    begin with {!Token.Omp}. *)

exception Error of string * int
(** [Error (message, line)] *)

val lex : string -> Token.line list
(** Split source text into logical statement lines and tokenize each. *)

val tokenize_line : int -> string -> Token.t list
(** Tokenize one raw statement body (no label/continuation handling). *)
