(** The restructuring server: a self-healing pool of OCaml 5 [Domain]
    workers fed by a bounded job queue.

    A job carries fortran77 source plus a {!Restructurer.Options.t};
    workers parse, restructure, print, and attach a {!Perfmodel} cycle
    estimate.  Results land in a content-addressed LRU cache keyed by
    {!cache_key} — entries are checksummed at insertion and verified on
    every hit, so a corrupted entry is dropped and recomputed rather
    than served.  The lookup happens at submission: a hit is answered on
    the submitting thread and never reaches a worker.  Every job has a wall-clock deadline:
    jobs that expire while queued come back [Cancelled] without running;
    jobs that exceed it while running are abandoned at the next
    interrupt poll and come back [Timeout].

    The pool survives its own failures:

    - {b Exception barrier}: any exception raised while executing a job
      (an [assert false] deep in a transform, a model error) resolves
      that job [Failed] with a captured backtrace; it never unwinds the
      worker.
    - {b Degradation ladder}: a failed, timed-out, or
      validator-rejected attempt is retried with exponential backoff at
      a cheaper rung — full techniques, then a conservative set (no
      DOACROSS, no generalized-induction substitution, no two-version
      run-time tests), then parse-and-print serial passthrough.  Each
      [Done] payload is tagged with the rung that produced it; only
      full-rung results are cached.
    - {b Supervision}: a supervisor domain watches per-worker
      heartbeats.  A worker killed by an escaping exception (chaos
      injection is the only source) is joined and respawned; its
      in-flight job is requeued once, or resolved [Failed] — never
      leaked.  Optionally, a worker silent long past its job's deadline
      is declared wedged: its job resolves [Timeout], the slot is
      respawned, and the stuck domain is orphaned until it exits on its
      own (the fuel counter in the analysis hot loops guarantees it
      does).
    - {b Circuit breaker}: after [breaker_threshold] consecutive {e
      real} (non-injected) restructure failures the breaker opens and
      jobs are served serial passthrough directly — degraded but alive.
      After [breaker_cooldown_ms] one probe job runs the full ladder;
      success closes the breaker, failure re-opens it.

    Chaos faults from an attached {!Fault} injector taint the jobs they
    strike (unless the injector is in stealth mode), and tainted
    failures never count toward the breaker — injected chaos must not
    convince the service that its restructurer is broken. *)

type request = {
  req_name : string;  (** label for reporting, e.g. the workload name *)
  req_source : string;  (** fortran77 source text *)
  req_options : Restructurer.Options.t;
}

type rung =
  | Full  (** every configured technique *)
  | Conservative
      (** techniques minus DOACROSS / GIV substitution / run-time
          dependence tests *)
  | Passthrough  (** parse-and-print serial identity: the reliable floor *)

val rung_name : rung -> string
(** ["full" | "conservative" | "passthrough"] *)

type payload = {
  p_name : string;
  p_text : string;  (** printed Cedar Fortran *)
  p_reports : Restructurer.Driver.loop_report list;
      (** empty for passthrough payloads *)
  p_cycles : float option;  (** perfmodel estimate; [None] if the model
                                does not apply (e.g. no PROGRAM unit) *)
  p_global_words : float option;
  p_rung : rung;  (** the ladder rung that produced this payload *)
}

type outcome =
  | Done of { payload : payload; cached : bool }
  | Failed of string  (** parse or restructure error (after the ladder) *)
  | Timeout  (** started, but exceeded the deadline (after retries) *)
  | Cancelled  (** expired in the queue (or queue closed): never ran *)

type ticket
(** Handle to one submitted job. *)

type t

val cache_key : request -> string
(** The content address: the MD5 hex of the request's canonical bytes —
    source, every option field (machine configuration included) and the
    target — as {!Restructurer.Codec.put_content} writes them.  A Submit
    frame ends with the same bytes, so a relay can compute the key from
    the raw frame ({!Net.Wire.submit_key}); the name never enters it. *)

val create :
  ?queue_capacity:int ->
  ?timeout_ms:float ->
  ?oversubscribe:bool ->
  ?fault:Fault.t ->
  ?retry_base_ms:float ->
  ?breaker_threshold:int ->
  ?breaker_cooldown_ms:float ->
  ?wedge_after_ms:float ->
  ?latency_reservoir:int ->
  ?max_source_bytes:int ->
  ?shard_id:string ->
  ?memo_capacity:int ->
  ?on_cache_fill:(key:string -> digest:string -> payload -> unit) ->
  workers:int ->
  cache_capacity:int ->
  unit ->
  t
(** Start [workers] domains ([>= 1] enforced) plus one supervisor
    domain.  Unless [oversubscribe] is set, the pool is capped at
    [Domain.recommended_domain_count] — extra domains on an
    oversubscribed host only add stop-the-world GC barrier cost.
    [queue_capacity] bounds the backlog (default 64).  [timeout_ms <= 0]
    (the default) means no deadline.

    [fault] attaches a chaos injector (default {!Fault.none}: no
    overhead beyond one branch per site).  [retry_base_ms] (default 1)
    is the backoff unit: descent [k] of the ladder sleeps
    [retry_base_ms * 2^k] before retrying.  [breaker_threshold]
    (default 5) consecutive real restructure failures open the breaker;
    [breaker_cooldown_ms] (default 250) is the open-to-half-open timer.
    [wedge_after_ms <= 0] (the default) disables heartbeat wedge
    detection.  [latency_reservoir] (default 1024) bounds the latency
    sample size.  [max_source_bytes > 0] rejects any request whose
    source exceeds the cap — resolved [Failed] with a typed message
    before the text ever reaches a parser ([0], the default, means
    unlimited).

    [memo_capacity] (default 1024) bounds the nest-level restructurer
    memo shared by every worker: per-loop-nest analysis/transformation
    results keyed by the normalized nest, replayed byte-identically for
    every later job containing an equivalent nest ([<= 0] disables it).
    The chaos injector's [memo-corrupt] site poisons entries as they are
    stored; poisoned output is caught by the validator gate when
    [validate] is on and demoted down the ladder, never cached.

    [shard_id] names this server inside a cluster (shows up in
    {!Stats.t}; default [""] = standalone).  [on_cache_fill] fires after
    each {e fresh} full-rung result is cached, with the content key, the
    payload-text digest, and the clean payload — the cluster replicator
    hangs off this.  It never fires for entries admitted via
    {!admit_replica}, and an exception it raises is swallowed (a
    replication hiccup must not fail the job that filled the cache). *)

val admit_replica : t -> key:string -> digest:string -> payload -> bool
(** Admit a warm-cache entry replicated from a ring peer.  The digest
    is recomputed from the payload text and the push is rejected on
    mismatch (corrupt in flight), as well as for non-[Full] rungs.
    Returns whether the entry was admitted; either way the replication
    counters in {!Stats.t} advance.  Admission inserts with normal LRU
    semantics — a replica can evict, and be evicted like, any other
    entry. *)

val gc_replicas : t -> keep:(string -> bool) -> int
(** Drop every {e replica-flagged} cache entry whose key fails [keep],
    returning how many were dropped.  The cluster replicator calls this
    on a topology change with [keep key = ] "this shard still backs
    [key] under the new ring", so an ex-successor does not serve (or
    shadow) entries it no longer owns.  Locally computed entries are
    never touched.  Counted in {!Stats.t}[.replica_gc]. *)

val export_cache : t -> (string * string * payload) list
(** Every resident cache entry as [(key, digest, payload)], recency
    untouched — what the cluster replicator re-pushes when the ring
    changes so placement converges without recomputation. *)

val metrics : t -> Obs.Metrics.t
(** The server's registry, the only storage of the counts {!stats}
    reports.  A {!Net.Server} in front of it registers here too. *)

val registries : t -> Obs.Metrics.t list
(** This server's metrics page: {!metrics}, its cache's, injector's and
    memo's, and the {!attach_registry} ones. *)

val attach_registry : t -> Obs.Metrics.t -> unit
(** Put a co-hosted replicator's registry on this server's page;
    {!stats} reads its [cluster_replication_pushed_total] and
    [cluster_replication_skipped_down_total]. *)

val effective_workers : t -> int
(** Worker slots in the pool (after the oversubscription cap). *)

val submit : ?trace:int -> ?key:string -> t -> request -> ticket
(** Look the request up in the cache and, on a verified hit, resolve
    the ticket [Done {cached = true}] at once on the calling thread;
    only a miss is enqueued, blocking while the queue is full
    (closed-loop backpressure).  On a closed server the ticket resolves
    [Cancelled].  [key] is the request's {!cache_key} when the caller
    already has it (computed here otherwise); the ticket carries it, so
    it is computed once per request.  [trace] carries a caller-minted
    {!Obs.Trace} id (e.g. one received over the wire) onto the ticket;
    when omitted (or [0]) a fresh id is minted iff tracing is enabled.
    The [cache_lookup] span lands in that trace. *)

val try_submit : ?trace:int -> ?key:string -> t -> request -> ticket option
(** Non-blocking {!submit} for front-ends that shed load instead of
    queuing on backpressure: a hit resolves as in [submit]; [None]
    means a miss found the queue without room (or the server was
    shutting down) and nothing was enqueued. *)

val await : ticket -> outcome
(** Block until the job resolves.  Every submitted ticket resolves,
    whatever happens to the worker that picked it up. *)

val on_resolve : ticket -> (outcome -> unit) -> unit
(** Register a completion callback instead of blocking: fires exactly
    once, on whatever thread resolves the ticket — or immediately on the
    caller if the ticket already resolved (a cache hit resolves inside
    {!submit} and {!try_submit}).  This is the non-blocking half of the fiber front-end's
    completion-queue bridge: the callback typically posts a wakeup into
    an [Aio] scheduler.  Callbacks run outside the ticket lock and must
    not call {!await} on the same ticket. *)

val run : t -> request -> outcome
(** [submit] then [await]: the synchronous client. *)

val stats : t -> Stats.t
(** Snapshot of the counters so far, read from {!registries}. *)

val shutdown : t -> Stats.t
(** Deterministic drain: (1) close the queue, so every later submit
    resolves [Cancelled]; (2) stop and join the supervisor; (3) join the
    workers — they finish in-flight and already-queued jobs first;
    (4) salvage anything dead workers or orphans left behind; (5) return
    the final statistics.  Idempotent — a second (e.g. signal-path)
    caller just gets the statistics. *)
