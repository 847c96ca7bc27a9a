(** Runtime storage for the Cedar Fortran interpreter.

    All numeric values are held as OCaml floats (Fortran INTEGERs in the
    workloads stay far below 2^53, so arithmetic is exact); LOGICALs are
    0/1.  Arrays carry their dimension descriptors for subscript
    linearization and bounds checking, plus the source-level name for
    diagnostics.  Each object knows its memory placement so the executor
    can charge the right latencies, and carries a process-unique storage
    id so the race detector can identify a memory location across
    aliases (array views passed by reference share the id of their
    base).

    The records are deliberately concrete: the executor builds array
    {e views} (shared [a_data], shifted [a_off]) for element-anchored
    actual arguments, so the representation is part of the contract. *)

open Fortran

exception Runtime_error of string

val error : ('a, unit, string, 'b) format4 -> 'a
(** [error fmt ...] raises {!Runtime_error} with the formatted text. *)

val fresh_id : unit -> int
(** Process-unique storage id (atomic counter — concurrent service
    workers never hand out the same id). *)

type arr = {
  a_name : string;  (** source-level name (the callee formal for views) *)
  a_id : int;  (** storage identity; shared by views of the same data *)
  a_data : float array;
  a_off : int;  (** start offset into [a_data] (element-anchored actuals) *)
  a_dims : (int * int) array;  (** (lower bound, extent) per dimension *)
  a_placement : Machine.Memory.placement;
}

type entry =
  | Scalar of {
      mutable v : float;
      placement : Machine.Memory.placement;
      id : int;
    }
  | Array of arr

val scalar : placement:Machine.Memory.placement -> float -> entry

type frame = {
  f_unit : Ast.punit;
  f_syms : Symbols.t;
  f_vars : (string, entry) Hashtbl.t;
}

val ref_str : string -> int list -> string
(** ["a(1,2)"] — render an array reference for diagnostics. *)

val linear_index : arr -> int list -> int
(** Linearize subscripts; bounds-checked.  Errors name the array, the
    full offending index vector and the declared bounds. *)

val get_elem : arr -> int list -> float
val set_elem : arr -> int list -> float -> unit

val make_array :
  placement:Machine.Memory.placement ->
  name:string ->
  (int * int) list ->
  arr
(** A zero-filled array with a fresh storage id. *)

val fresh_frame : Ast.punit -> frame
