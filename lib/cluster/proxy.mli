(** The cluster balancer: a cedarnet server whose backend is other
    cedarnet servers.

    Speaks {!Net.Wire} on both sides.  Clients connect exactly as they
    would to a single cedard.  A [Submit] is never decoded: the proxy
    checks its payload structurally ({!Net.Wire.submit_key}, so a
    malformed one is answered [R_error] on id 0 and never reaches a
    shard), routes on the digest of its keyed byte range — the shards'
    {!Service.Server.cache_key} — to the key's ring owner, and forwards
    the frame with only the request id rewritten; the shard's Result
    frame comes back the same way.  So the same program always lands on
    the same shard, and therefore in the same warm cache.
    Requests pipeline: each admitted submit is relayed by its own fiber
    on the proxy's event loop, over a reused per-shard connection from
    an {!Upstream} pool.  At most 16 shard round trips run at once;
    further relays wait for one to finish.  The membership prober
    ({!Membership.probe_loop}) and any metrics endpoint are fibers on
    the same loop, so the proxy runs one thread, the loop, however many
    requests are in flight.

    Failure handling, in order of preference: a shard that answers
    typed (even [R_overloaded]) is believed; a transport failure demotes
    the shard in {!Membership} and the request retries on the ring
    successor (safe — submits are idempotent by content-addressed key);
    when every candidate is unreachable or saturated the proxy sheds
    with the protocol's existing [R_overloaded].

    The proxy also serves cluster-wide observability, all as JSON
    built with {!Obs.Json}: [Stats_json_req] answers
    [{"proxy":{routed, failovers, shed, members},"shards":{id: stats}}]
    with every live shard's {!Service.Stats.to_json} ([null] for one
    that is down or unreachable); [Members_json_req] the membership
    view (ring epoch, vnodes, proxy routing counters, per-shard state,
    idle connections and replication counters); [Metrics_json_req] the
    proxy's registry, its membership view's and the global one.
    [cedarctl] renders the text views.

    A [Cluster_add] whose shard id is not {!Membership.valid_id} is
    refused with [ack_ok = false] and the epoch unchanged.

    {b Topology changes.}  [Cluster_add] / [Cluster_remove] frames
    (from [cedarctl cluster add/remove]) change the member set at
    runtime behind an epoch barrier: the proxy stops admitting new
    relays, drains the ones routed on the old ring, applies the
    membership mutation (bumping the ring epoch), and only then routes
    on the new ring — no request is ever relayed against a stale
    epoch ({!stale_routes_total} counts violations; it stays 0).  The
    applied change is then broadcast best-effort to the live shards so
    their replicators re-balance onto the new ring.

    {b Read-repair.}  A warm full-rung hit served by a shard that is
    not the key's current ring owner (failover, or ownership moved
    under a topology change) is pushed back to the owner off the
    critical path, so subsequent requests for the key land warm on the
    first candidate.  Only such a misplaced reply is decoded. *)

type cfg = {
  host : string;
  port : int;  (** 0 = ephemeral *)
  max_conns : int;
  max_inflight : int;  (** across all client connections *)
  failover : int;  (** ring candidates tried per submit (owner included) *)
  read_timeout_s : float;  (** client-side quiet timeout *)
  shard_timeout_s : float;  (** per-shard connect and round-trip bound *)
}

val default_cfg : cfg
(** 127.0.0.1, ephemeral port, 64 conns, 256 in flight, failover 2,
    30 s reads, 60 s shard timeout. *)

type t

val create :
  ?cfg:cfg ->
  ?vnodes:int ->
  ?probe_ms:float ->
  ?down_after:int ->
  ?seed:int ->
  Membership.shard list ->
  t
(** Start the proxy over the given shards: builds the membership view
    and starts the event-loop thread that accepts clients, relays their
    requests and runs the jittered probe fiber.  Ring parameters must
    match the shards' replicators ([vnodes], default 64). *)

val port : t -> int
(** The bound TCP port. *)

val membership : t -> Membership.t

val metrics : t -> Obs.Metrics.t
(** The proxy's registry, which every count in its views is read from;
    it has one {!route_metric_name} counter per shard ever routed to. *)

val route_metric_name : string -> string
(** [cluster_route_<id>_total], the id escaped as Prometheus escapes
    names (["a_b.c-d"] gives [cluster_route_a__b_2e_c_2d_d_total]): a
    valid metric name, distinct for distinct ids. *)

val attach_metrics : t -> port:int -> Net.Metrics_http.t
(** Serve the Prometheus dump of the proxy process's page over HTTP on
    [port] (0 = ephemeral) of the proxy's host, from a fiber on the
    proxy's loop.  {!drain} stops it.
    @raise Unix.Unix_error when the address cannot be bound. *)

val request_stop : t -> unit
(** Ask the proxy to stop (signal-handler safe). *)

val wait_stop : t -> unit
(** Block until {!request_stop} is called. *)

val drain : t -> unit
(** Stop accepting, cancel the probe and metrics fibers, finish
    in-flight relays, close the idle shard connections.  Idempotent. *)

val routed_total : t -> int
(** Submits relayed to a shard (first attempt or failover). *)

val failover_total : t -> int
(** Submits that succeeded only on a non-first candidate. *)

val shed_total : t -> int
(** Requests answered [R_overloaded] by the proxy itself (budget
    exhausted or no live candidate). *)

val epoch : t -> int
(** The membership view's current ring epoch. *)

val stale_routes_total : t -> int
(** Relays whose routing decision predated a topology change — the
    epoch barrier exists to keep this at 0. *)

val read_repair_total : t -> int
(** Misplaced warm hits pushed back to their current ring owner. *)

val topology_changes_total : t -> int
(** Membership changes applied (successful add/remove frames). *)
