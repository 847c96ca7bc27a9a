(** Recognition of loops replaceable by Cedar library calls (paper §3.3):
    dot products, first-order linear recurrences, min/max searches. *)

type pattern =
  | Dotproduct of { acc : string; a : Fortran.Ast.expr; b : Fortran.Ast.expr }
  | Linear_recurrence of {
      x : string;
      mul : Fortran.Ast.expr option;  (** None for 1 *)
      add : Fortran.Ast.expr option;  (** None for 0 *)
    }
  | Minmax_search of { acc : string; arg : Fortran.Ast.expr; is_max : bool }

val recognize : string -> Fortran.Ast.stmt list -> pattern option
(** Recognize a single-statement loop body over the given index. *)
