(** Vectorization of an innermost loop into fortran90-style vector
    statements (with IF→WHERE conversion and [cedar_iota] index vectors),
    and the strip-local variant used by stripmining. *)

type failure =
  | Non_assign_stmt
  | Non_unit_stride of string
  | Scalar_write of string  (** needs scalar expansion first *)
  | User_call of string  (** only intrinsics apply elementwise *)

exception Fail of failure

val vector_expr :
  index:string ->
  lo:Fortran.Ast.expr ->
  hi:Fortran.Ast.expr ->
  ?exp_range:(Fortran.Ast.expr * Fortran.Ast.expr) option ->
  expanded:(string * string) list ->
  Fortran.Ast.expr ->
  Fortran.Ast.expr
(** Rewrite an expression into vector form over [lo..hi]; [expanded] maps
    scalars to their expansion arrays sectioned over [exp_range].
    @raise Fail on shapes a section cannot express *)

val vector_stmts :
  index:string ->
  lo:Fortran.Ast.expr ->
  hi:Fortran.Ast.expr ->
  ?exp_range:(Fortran.Ast.expr * Fortran.Ast.expr) option ->
  expanded:(string * string) list ->
  Fortran.Ast.stmt list ->
  Fortran.Ast.stmt list

val vectorizable_shape : Fortran.Ast.stmt list -> bool
(** Statement shapes only; dependences are the caller's burden. *)

val vectorize_loop :
  Fortran.Ast.do_header -> Fortran.Ast.stmt list -> Fortran.Ast.stmt list option
(** Whole-loop vectorization: the loop becomes vector statements. *)
