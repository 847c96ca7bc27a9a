(** Restructurer configuration: technique sets and tunables.

    {!auto_1991} is the parallelizer as of March 1991 (the paper's
    "Automatically compiled" columns); {!advanced} adds every §4.1
    technique the authors applied by hand and declared automatable. *)

type techniques = {
  scalar_privatization : bool;
  scalar_expansion : bool;
  simple_induction : bool;  (** V = V + k, flat loops *)
  simple_reduction : bool;  (** single-statement scalar reductions *)
  doacross : bool;
  stripmining : bool;
  if_to_where : bool;
  inline_expansion : bool;
  loop_interchange : bool;
  recurrence_substitution : bool;
  (* --- §4.1 advanced techniques --- *)
  array_privatization : bool;
  generalized_reduction : bool;  (** multi-statement & array-element *)
  giv_substitution : bool;  (** geometric & triangular closed forms *)
  runtime_dep_test : bool;
  critical_sections : bool;
  interprocedural : bool;
  loop_fusion : bool;
  loop_distribution : bool;
}

type t = {
  techniques : techniques;
  machine : Machine.Config.t;
  max_versions : int;  (** candidate-version limit; the paper's 50 *)
  strip : int;
  inline_limits : Transform.Inline.limits;
  placement_default : Transform.Globalize.placement_default;
  assumed_trip : int;  (** trip-count guess for symbolic bounds *)
  validate : bool;
      (** re-verify every emitted parallel loop with the independent
          static checker; loops that fail are demoted to serial *)
  target : Codegen.Target.t;
      (** which surface syntax the service emits (default {!Codegen.Target.Cedar});
          part of the cache/memo identity *)
}

val base_techniques : techniques
val advanced_techniques : techniques

val make : techniques:techniques -> Machine.Config.t -> t
val auto_1991 : Machine.Config.t -> t
val advanced : Machine.Config.t -> t

val equal_techniques : techniques -> techniques -> bool
