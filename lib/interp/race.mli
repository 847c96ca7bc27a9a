(** Dynamic data-race detection for parallel Cedar Fortran loops.

    While a monitored parallel loop executes, every read and write the
    iteration bodies make to non-private storage is logged per memory
    location (storage id + element offset), tagged with the iteration
    number and the synchronization state at the time of the access:

    - for DOACROSS loops, whether the access happened after the
      iteration's [await] (and with what delay factor) and whether it
      happened after the iteration's [advance];
    - the set of locks held (unordered critical sections).

    Two accesses to the same location from distinct iterations, at
    least one a write, form a race unless the cascade orders them —
    iteration [j] is ordered after an access of iteration [i < j] iff
    the access of [i] precedes [i]'s [advance] and the access of [j]
    follows [j]'s [await(d)] with [j - d >= i] (the cascade completes
    iterations in order, so awaiting [j - d] also awaits [i]) — or both
    accesses hold a common lock (mutual exclusion: no data race, though
    the outcome may still be order-dependent).

    The detector is a pure observer: it charges no cycles and never
    changes scheduling, so a monitored run computes exactly what an
    unmonitored run computes. *)

type access = ARead | AWrite

type issue = {
  i_unit : string;  (** reserved; the executor does not track unit names *)
  i_loop : string;  (** index variable of the monitored loop *)
  i_cls : Fortran.Ast.loop_class;
  i_location : string;  (** e.g. ["a(7)"] or ["t"] *)
  i_iter_a : int;
  i_kind_a : access;
  i_iter_b : int;
  i_kind_b : access;
}

val issue_to_string : issue -> string

type t
(** A detector: an issue log shared by every loop it monitors. *)

val create : ?limit:int -> unit -> t
(** A fresh detector keeping at most [limit] (default 64) issues;
    further ones are counted but dropped. *)

val issues : t -> issue list
(** Issues found so far, oldest first. *)

type state
(** Per-worker, per-iteration synchronization state. *)

val fresh_state : int -> state
(** State for iteration [i]: nothing awaited, not advanced, no locks. *)

val note_await : state -> int -> unit
(** The iteration passed an [await] with the given delay factor. *)

val note_advance : state -> unit
val note_lock : state -> int -> unit
val note_unlock : state -> int -> unit

type loopctx
(** One monitored parallel loop: the per-location access log. *)

val enter_loop :
  t -> index:string -> cls:Fortran.Ast.loop_class -> loopctx

val note :
  loopctx ->
  state ->
  access ->
  id:int ->
  off:int ->
  loc:(unit -> string) ->
  unit
(** Log one access to location (storage id [id], element offset [off]).
    [loc] renders the location lazily — only evaluated when a race is
    actually found. *)
