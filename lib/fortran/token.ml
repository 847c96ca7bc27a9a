(** Lexical tokens of (Cedar) Fortran.

    Fortran has no reserved words; the parser recognizes keywords from
    [Ident] tokens in statement-initial position.  The lexer produces one
    token list per logical line (after comment stripping and continuation
    splicing), each carrying its statement label if present. *)

type t =
  | Ident of string  (** lower-cased identifier or keyword *)
  | IntLit of int
  | RealLit of float
  | StrLit of string
  | LogicLit of bool  (** .TRUE. / .FALSE. *)
  | Plus
  | Minus
  | Star
  | Slash
  | DStar  (** ** *)
  | LParen
  | RParen
  | Comma
  | Colon
  | Assign  (** = *)
  | OpEq
  | OpNe
  | OpLt
  | OpLe
  | OpGt
  | OpGe
  | OpAnd
  | OpOr
  | OpNot
  | Omp  (** the [!$omp] sentinel that opens a directive line *)
[@@deriving show { with_path = false }, eq]

(** One logical statement line: its numeric label (0 if none), the source
    line number of its first physical line, and its tokens. *)
type line = { label : int; lineno : int; tokens : t list }

let to_string = function
  | Ident s -> s
  | IntLit n -> string_of_int n
  | RealLit f -> string_of_float f
  | StrLit s -> Printf.sprintf "'%s'" s
  | LogicLit true -> ".true."
  | LogicLit false -> ".false."
  | Plus -> "+"
  | Minus -> "-"
  | Star -> "*"
  | Slash -> "/"
  | DStar -> "**"
  | LParen -> "("
  | RParen -> ")"
  | Comma -> ","
  | Colon -> ":"
  | Assign -> "="
  | OpEq -> ".eq."
  | OpNe -> ".ne."
  | OpLt -> ".lt."
  | OpLe -> ".le."
  | OpGt -> ".gt."
  | OpGe -> ".ge."
  | OpAnd -> ".and."
  | OpOr -> ".or."
  | OpNot -> ".not."
  | Omp -> "!$omp"
