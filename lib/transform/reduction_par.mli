(** Parallel reduction transformation (paper §3.3, §4.1.3): private
    partial accumulators initialized in the loop preamble, combined into
    the shared location in the postamble inside an unordered critical
    section.  Rank-1 array partials initialize and merge as vector
    statements. *)

type scalar_red = {
  sr_var : string;
  sr_op : Analysis.Scalars.red_op;
  sr_type : Fortran.Ast.dtype;
}

type array_red = {
  arr_name : string;
  arr_op : Analysis.Scalars.red_op;
  arr_type : Fortran.Ast.dtype;
  arr_dims : (Fortran.Ast.expr * Fortran.Ast.expr) list;
}

val apply :
  scalars:scalar_red list ->
  arrays:array_red list ->
  Fortran.Ast.do_header ->
  Fortran.Ast.block ->
  Fortran.Ast.stmt

(** {2 Annotation surface for codegen backends} *)

type recognized_red = {
  rr_shared : string;  (** the shared accumulation target *)
  rr_partial : string;  (** the per-processor partial local *)
  rr_op : Analysis.Scalars.red_op;
  rr_type : Fortran.Ast.dtype;
}

val recognize :
  Fortran.Ast.do_header ->
  Fortran.Ast.block ->
  (recognized_red list * Fortran.Ast.do_header * Fortran.Ast.block) option
(** Recognize the scalar-reduction machinery {!apply} put into a
    concurrent loop and strip it back out: the partial locals leave the
    header, the identity inits leave the preamble, the lock-bracketed
    merges leave the postamble (the [lock]/[unlock] pair too when the
    critical section empties), and the body accumulates into the shared
    names again.  [None] when no scalar partial matches the pattern.
    Array partials are left in place — they have no clause mapping. *)
