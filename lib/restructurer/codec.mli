(** The canonical bytes of a restructure request, and the byte
    primitives every cedarnet message is written with: big-endian
    integers, OCaml ints as 8 bytes, floats as IEEE-754 bits, strings
    as a 4-byte length and the bytes.

    A request's content is its source text and every field of its
    {!Options.t}, the codegen target last.  {!content_key}, the MD5 hex
    of those bytes, is the result cache's content address; a Submit
    frame ends with the same bytes, so a relay can route on the digest
    of the raw range. *)

val put_u8 : Buffer.t -> int -> unit
val put_bool : Buffer.t -> bool -> unit
val put_int : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
val put_opt_f64 : Buffer.t -> float option -> unit

exception Truncated
exception Malformed of string

(** A read position in the caller's window [\[pos, limit)] of [src],
    which is never written; only extracted strings are copied. *)
type cursor = { src : Bytes.t; mutable pos : int; limit : int }

val get_u8 : cursor -> int
val get_bool : cursor -> bool
val get_int : cursor -> int
val get_string : cursor -> string
val get_opt_f64 : cursor -> float option

val get_count : cursor -> string -> int
(** A list length the rest of the window could hold at one byte per
    element; anything larger is {!Malformed}. *)

val put_content : Buffer.t -> source:string -> Options.t -> unit
val get_content : cursor -> string * Options.t

val skip_content : cursor -> unit
(** {!get_content}'s checks, in its order, building nothing: it raises
    exactly when {!get_content} would, with the same exception. *)

val content_key : source:string -> Options.t -> string
(** MD5 hex of the {!put_content} bytes. *)
