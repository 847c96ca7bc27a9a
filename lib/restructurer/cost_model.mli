(** The restructurer's static cost model (paper §3.3–§3.4): ranks the
    candidate execution modes of a loop, including the DOACROSS
    synchronization delay factor and the global/cluster data-placement
    consequences of each mode. *)

type mode =
  | Serial
  | Vector  (** innermost loop as vector statements *)
  | Cdoall_mode of { vector_inner : bool }
  | Sdo_cdo_mode of { vector_inner : bool }
  | Xdoall_strip
  | Xdoall_plain
  | Doacross_mode of { sync_fraction : float; distance : int }

val show_mode : mode -> string

type body_profile = {
  flops : float;  (** arithmetic per iteration *)
  intrinsics : float;
  mem_refs : float;  (** memory references per iteration *)
  trip : int;  (** (assumed) iteration count *)
  inner_trip : int;  (** nested loop iterations, 1 if none *)
}

val profile :
  assumed_trip:int ->
  Analysis.Loops.level ->
  Fortran.Ast.stmt list ->
  body_profile

val estimate :
  ?inner_vector:bool -> Machine.Config.t -> body_profile -> mode -> float
(** Estimated cycles for the whole loop under the mode.  Spread/cross
    modes cost their data at global-memory rates; [inner_vector] says the
    body's inner loops will vectorize. *)

val rank :
  ?inner_vector:bool ->
  ?parallel_overhead:float ->
  Machine.Config.t ->
  body_profile ->
  mode list ->
  (mode * float) list
(** Best-first.  [parallel_overhead] (reduction merges, privatization
    copies) is added to every parallel mode. *)
