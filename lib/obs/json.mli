(** The one JSON value type, writer and reader of the code base.

    Every stats, metrics, membership and trace document is built as a
    {!t} and written by {!to_string}; every consumer reads one back with
    {!parse}.  The writer is compact (no whitespace) and total: strings
    are escaped, and each float prints with the fewest of 15, 16 or 17
    significant digits that read back equal (with a [.0] when that
    looks like an integer, so a float stays a float across a round
    trip). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** a non-finite float is written as [null] *)
  | String of string  (** raw bytes; control bytes are escaped *)
  | List of t list
  | Obj of (string * t) list  (** keys in writing order *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Strict JSON (surrounding whitespace allowed).  A number without a
    fraction or exponent that fits an [int] becomes {!Int}, any other
    number {!Float}; [\u] escapes decode to UTF-8.  Total: never raises
    — malformed input, and nesting deeper than 512, is an [Error]. *)

(** {2 Reading fields}  Lenient accessors for renderers: a missing or
    mistyped field reads as [Null], 0, 0.0 or [""]. *)

val member : string -> t -> t
(** The field's value, [Null] when absent or when [t] is no object. *)

val to_int : t -> int
(** {!Int}, or the truncation of a {!Float}. *)

val to_float : t -> float
(** {!Float}, or an {!Int} converted. *)

val to_str : t -> string
(** The contents of a {!String}. *)

val to_list : t -> t list
(** The elements of a {!List}. *)
