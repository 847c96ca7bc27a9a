(** Binary min-heap keyed by (time, insertion sequence) — the event queue
    of the simulator.  Ties in time resolve in insertion order, making
    simulations deterministic. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> time:float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
val peek_time : 'a t -> float option

val filter : 'a t -> ('a -> bool) -> unit
(** Drop every entry whose payload fails the predicate, in O(n).  The
    survivors keep their insertion order for ties. *)
