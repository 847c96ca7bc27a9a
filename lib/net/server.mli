(** The cedarnet TCP front-end: puts a {!Service.Server} on the network.

    One event-loop thread runs every fiber: an accept fiber, plus a
    reader, a responder and a writer fiber per connection.  Requests on
    one connection may be pipelined: the reader admits each
    {!Wire.Submit} into the service pool without waiting for earlier
    replies, and the responder streams results back in submission
    order, each echoing its request id.  Other fibers may share the
    loop ({!loop}): a metrics endpoint ({!attach_metrics}) and a
    shard's replication sender.

    {b Admission control.}  Two budgets shed load explicitly instead of
    queuing without bound: at most [max_conns] connections are served at
    once (excess connections receive one [R_overloaded] frame and are
    closed), and at most [max_inflight] submits may be outstanding
    inside the service across all connections (excess submits are
    answered [R_overloaded] immediately).  A submit the service queue
    itself cannot take (bounded queue full) is also shed.

    {b Deadlines and hygiene.}  [read_timeout_s] bounds how long a
    request may take to arrive once its first byte is seen (a stalled
    sender is dropped; a merely idle connection is not), and
    [write_timeout_s] bounds each reply write.  Submits whose source
    exceeds [max_source_bytes] are rejected with a typed
    [R_too_large] before any parsing — oversized frames are drained in
    constant memory, so the connection survives the rejection.

    {b Observability.}  Every submit carries (or is minted) an
    {!Obs.Trace} id that rides the job end to end and returns in the
    reply; connection/request/shed counters are registered in the
    service's registry.  Stats and metrics requests are answered with
    JSON: {!Service.Stats.to_json}, and {!Obs.Metrics.to_json} of the
    service's {!Service.Server.registries}, the injector's and the
    global one.

    {b Chaos.}  An attached {!Service.Fault} injector with network
    sites armed attacks the wire itself: accepted connections dropped,
    reads stalled, replies truncated mid-frame or replaced with
    garbage. *)

type cfg = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral (read it back with {!port}) *)
  max_conns : int;  (** accepted-connection budget *)
  max_inflight : int;  (** outstanding-submit budget, all connections *)
  max_source_bytes : int;  (** submit-source cap; 0 = unlimited *)
  read_timeout_s : float;  (** per-request read deadline; 0 = none *)
  write_timeout_s : float;  (** per-reply write deadline; 0 = none *)
}

val default_cfg : cfg
(** 127.0.0.1:0, 64 connections, 256 in flight, 8 MiB source cap,
    30 s read and write deadlines. *)

type t

(** A topology change pushed down from the cluster proxy over the wire:
    [`Add (id, host, port)] or [`Remove id]. *)
type cluster_change = [ `Add of string * string * int | `Remove of string ]

val create :
  ?fault:Service.Fault.t ->
  ?on_cluster_change:(cluster_change -> bool * int * string) ->
  cfg ->
  Service.Server.t ->
  t
(** Bind, listen, and start accepting.  The service pool is {e not}
    owned: shutting it down is the caller's job (after {!drain}).

    [on_cluster_change] handles {!Wire.Cluster_add} / [Cluster_remove]
    frames (a replicating shard re-aims its successor pushes at the new
    ring); it returns [(ok, epoch, message)], echoed back as a
    {!Wire.Cluster_ack}.  Without it those frames are acked
    [ack_ok = false].
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually-bound port (resolves [port = 0]). *)

val request_stop : t -> unit
(** Ask the server to stop — callable from a signal handler (it only
    sets an atomic flag).  {!wait_stop} returns shortly after. *)

val wait_stop : t -> unit
(** Block until {!request_stop} is called (signal path) or a
    {!Wire.Shutdown_req} frame arrives (wire path). *)

val loop : t -> Aio.t
(** The scheduler the event-loop thread runs.  Fibers posted onto it
    keep {!drain} waiting until they finish. *)

val attach_metrics : t -> port:int -> Metrics_http.t
(** Serve the Prometheus dump of the metrics page over HTTP on
    [port] (0 = ephemeral) of this server's host, from a fiber on
    {!loop}.  {!drain} stops it.
    @raise Unix.Unix_error when the address cannot be bound. *)

val drain : t -> unit
(** Graceful drain: stop accepting, shut the read side of every
    connection (no new requests), stop the metrics endpoints, let every
    in-flight request finish and its reply flush, then wait for the
    loop's last fiber to finish and its thread to exit.  Idempotent.
    The caller then runs {!Service.Server.shutdown} to flush stats. *)

(** {2 Pieces shared with other fiber front-ends} *)

val read_frames :
  ?stall:(unit -> unit) ->
  timeout_s:float ->
  alive:(unit -> bool) ->
  Unix.file_descr ->
  Wire.Stream.t ->
  Bytes.t ->
  ([ `Frame of string | `Oversized of int * int | `Fail of Wire.error ] -> bool) ->
  [ `Eof | `Deadline | `Stopped ]
(** Fiber context: feed raw frames ({!Wire.Stream.next_raw}) off a
    non-blocking connection to the handler until it answers [false] or
    [alive ()] turns false ([`Stopped]), or the peer closes.  A frame
    must arrive within [timeout_s] of its first byte ([`Deadline]).
    [stall] runs before each read (chaos). *)

val refuse : Unix.file_descr -> unit
(** Fiber context: answer a connection over budget with one
    [R_overloaded] frame on id 0 from a short fiber, then close it. *)

val connections_seen : t -> int
val inflight_high_water : t -> int
(** Most submits ever outstanding at once — proves the in-flight budget
    held under overload.  Read it after {!drain}. *)

val shed_total : t -> int
(** Requests/connections answered [R_overloaded]. *)
