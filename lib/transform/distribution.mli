(** Loop distribution (paper §3.3): split a loop into consecutive
    sub-loops, e.g. to isolate a recurrence for library substitution or
    to let the parallel part of a blocked loop escape.

    Legality is conservative: no backward dependence between groups, and
    values flowing forward must be array cells moving elementwise with
    the loop index (a scalar or fixed cell would deliver its final value
    instead of the per-iteration one).  Bodies with GOTO or labels are
    refused. *)

val distribute :
  Fortran.Ast.do_header ->
  Fortran.Ast.stmt list ->
  int list ->
  Fortran.Ast.stmt list option
(** Split the body into the given consecutive group sizes. *)
