(** Reduction operators: the one home of their identities, their combine
    expressions and their OpenMP clause spelling.  The front end reads
    [reduction(op:v)] clauses with these tables, the analyses classify
    with the operator type, and the reduction transformation and the
    OpenMP backend build and recognize the same shapes. *)

type red_op = Rsum | Rprod | Rmin | Rmax

(** The value a partial accumulator starts from. *)
let identity_of (op : red_op) ~(ty : Ast.dtype) : Ast.expr =
  let num f i = if ty = Ast.Integer then Ast.Int i else Ast.Num f in
  match op with
  | Rsum -> num 0.0 0
  | Rprod -> num 1.0 1
  | Rmin -> num 1e30 1073741823
  | Rmax -> num (-1e30) (-1073741823)

(** [a op b], as the merge of a partial into its shared location. *)
let combine_expr (op : red_op) a b : Ast.expr =
  match op with
  | Rsum -> Ast.Bin (Ast.Add, a, b)
  | Rprod -> Ast.Bin (Ast.Mul, a, b)
  | Rmin -> Ast.Call ("min", [ a; b ])
  | Rmax -> Ast.Call ("max", [ a; b ])

(** The operator's spelling in an OpenMP [reduction(op:var)] clause. *)
let op_clause = function
  | Rsum -> "+"
  | Rprod -> "*"
  | Rmin -> "min"
  | Rmax -> "max"

(** Inverse of {!op_clause}. *)
let op_of_clause = function
  | "+" -> Some Rsum
  | "*" -> Some Rprod
  | "min" -> Some Rmin
  | "max" -> Some Rmax
  | _ -> None
