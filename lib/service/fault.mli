(** Seeded, deterministic fault injector — the chaos harness threaded
    through the server's queue, cache, restructure stage, and validator
    gate.

    Each fault {!site} has a probability; the server asks {!fire} at the
    matching point of the job lifecycle and, when told to, forces the
    failure: raises {!Injected}, sleeps, kills the worker domain,
    corrupts the cached payload text, or rejects a correct result.
    Decision [n] for a site is a pure function of (seed, site, [n]), so
    the same seed reproduces the same per-site fault schedule regardless
    of how worker domains interleave — and a one-worker run is fully
    deterministic end to end.

    By default injected faults are {e visible}: the server tags the job
    as chaos-tainted and the circuit breaker ignores its failures
    (synthetic faults must not degrade real capability).  Under
    [stealth] the marker is suppressed and injected faults are
    indistinguishable from real ones — the mode used to exercise the
    breaker itself. *)

type site =
  | Exec_raise  (** exception from deep inside the restructure stage *)
  | Exec_delay  (** artificial latency before restructuring *)
  | Worker_kill  (** domain death: escapes the job's exception barrier *)
  | Cache_corrupt  (** flip a byte of the payload text stored in the cache *)
  | Memo_corrupt  (** poison a nest entry as the restructurer memo stores it *)
  | Validator_reject  (** spurious rejection of a correct result *)
  | Accept_drop  (** close an accepted connection before reading anything *)
  | Read_stall  (** stall the server's frame reader (client sees latency) *)
  | Trunc_write  (** cut a reply frame short and drop the connection *)
  | Garbage_frame  (** replace a reply frame with bytes that decode to junk *)

exception Injected of site
(** Raised by the server at a site the injector told to fire. *)

val all_sites : site list

val service_sites : site list
(** The in-process job-lifecycle sites ([all] in a [--chaos] spec). *)

val net_sites : site list
(** The wire sites a {!Net.Server} attacks ([net] in a [--chaos] spec). *)

val site_name : site -> string

type t

val none : t
(** The inactive injector: {!fire} always answers [false], no counters. *)

val create :
  ?seed:int -> ?stealth:bool -> ?delay_ms:float -> (site * float) list -> t
(** [create sites] with per-site probabilities; unlisted sites never
    fire.  [delay_ms] is the latency injected at {!Exec_delay} (default
    5ms).  @raise Invalid_argument on a probability outside [0,1]. *)

val active : t -> bool
(** Any site with a nonzero probability? *)

val stealth : t -> bool
val delay_s : t -> float

val set_prob : t -> site -> float -> unit
(** Change a site's probability mid-run (tests: let a "failing" stage
    recover so the breaker's half-open probe can succeed). *)

val fire : t -> site -> bool
(** Should this site's fault fire now?  Counts a draw; deterministic in
    (seed, site, draw number). *)

val log : t -> (site * int * int) list
(** Per site: (site, draws, fired). *)

val metrics : t -> Obs.Metrics.t
(** The injector's registry, where {!log} and {!total_fired} read the
    fired counts; empty for {!none}, which never fires. *)

val fired_metric_name : site -> string
(** [service_fault_fired_<site>_total], with the ['-'] of a site name
    written ['_'] (e.g. [service_fault_fired_memo_corrupt_total]). *)

val total_fired : t -> int
val log_to_string : t -> string

val parse_spec : string -> ((site * float) list, string) result
(** Parse a [--chaos] spec: comma-separated [site=prob] with sites
    [raise], [delay], [kill], [corrupt], [memo-corrupt], [reject],
    [accept-drop],
    [read-stall], [trunc-write], [garbage-frame], [all] (every
    in-process site at once) or [net] (every wire site at once),
    e.g. ["all=0.1"], ["net=0.05"] or ["raise=0.2,kill=0.05"]. *)
