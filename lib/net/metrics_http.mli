(** Minimal HTTP/1.0 scrape endpoint: every GET (any path) answers
    [200 OK] with the text produced by the [dump] thunk — intended to
    serve {!Obs.Metrics.dump}, the Prometheus rendering of the
    registry's JSON snapshot, to a scraper or [curl].  One request per
    connection, 2 s read / 5 s write deadlines. *)

type t

val start : ?host:string -> port:int -> (unit -> string) -> t
(** Bind (default host 127.0.0.1; [port = 0] picks an ephemeral one)
    and serve in a background thread.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually-bound port. *)

val stop : t -> unit
(** Stop accepting, join the thread, close the socket.  Idempotent. *)
