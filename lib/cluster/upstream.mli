(** A loop-local pool of fiber {!Net.Client} connections to one peer:
    the proxy's relay connections to a shard and the {!Replicator}'s
    push connections.  Every call is fiber context on the owning loop,
    so the idle list takes no lock.  A connection that saw an error is
    closed, not returned, so no socket is recycled in an unknown state;
    with none idle, checkout dials a fresh one. *)

type t

val create : ?max_idle:int -> Net.Client.cfg -> t
(** A pool dialing with [cfg], keeping at most [max_idle] (default 8)
    idle connections. *)

val with_client :
  t -> (Net.Client.t -> ('a, string) result) -> ('a, string) result
(** Check a connection out, run [f], return it.  [Error] from [f], or an
    exception such as {!Aio.Cancelled}, closes the connection and is
    passed on. *)

val idle : t -> int
(** Idle connections held. *)

val close : t -> unit
(** Close the idle connections and keep none from now on; later round
    trips dial one-shot connections.  On the owning loop, or once it
    has finished. *)
