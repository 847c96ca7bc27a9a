(** Generalized induction-variable substitution (paper §4.1.4).

    Once {!Analysis.Giv} has a closed form, the recursive update
    statement is deleted, uses are replaced by the closed form (in terms
    of the loop indices and the pre-loop value), and the final value is
    assigned after the loop.  We require every use to appear lexically
    at-or-after the update within the body, which holds for the
    TRFD/OCEAN patterns; the transform refuses otherwise. *)

open Fortran

val uses_follow_update : string -> Ast.stmt list -> bool
(** No read of [v] occurs before its update in a walk of the body. *)

val apply :
  Analysis.Giv.closed_form ->
  Ast.do_header ->
  Ast.block ->
  (Ast.stmt * Ast.stmt list) option
(** Substitute the GIV away in the loop.  Returns
    [(transformed loop, after_stmts)]: the final-value assignment to
    place after the loop.  [None] when the use pattern is
    unsupported. *)
