(** Minimal HTTP/1.0 scrape endpoint: every GET (any path) answers
    [200 OK] with the text produced by the [dump] thunk — intended to
    serve {!Obs.Metrics.dump}, the Prometheus rendering of the
    registry's JSON snapshot, to a scraper or [curl].  One request per
    connection, 2 s read / 5 s write deadlines.

    The endpoint is one accept fiber on its owner's {!Aio} loop (a
    {!Server}'s or a cluster proxy's; both attach one with their
    [attach_metrics] and stop it at drain).  It serves one scrape at a
    time and adds no thread. *)

type t

val start : ?host:string -> port:int -> Aio.t -> (unit -> string) -> t
(** Bind (default host 127.0.0.1; [port = 0] picks an ephemeral one)
    and serve on the given loop, which the caller runs.  Callable from
    any thread.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Invalid_argument when the loop has already finished. *)

val port : t -> int
(** The actually-bound port. *)

val stop : t -> unit
(** Cancel the accept fiber; it closes the socket as it exits.
    Callable from any thread; idempotent.  The loop stops serving at
    its next step, so a host's drain does not wait on the endpoint. *)
