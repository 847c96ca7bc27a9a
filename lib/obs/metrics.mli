(** Metrics registries: named counters, gauges and histograms with a
    JSON snapshot and its [/metrics]-style text rendering.

    Every object that counts its own work (a service, its cache and
    memo, a fault injector, a proxy, a replicator, a membership view)
    creates its own registry, and the instrument handles in it are the
    only storage for those counts: the object's stats views read them
    back.  {!global} holds only the instruments of code that has no
    instance (the fiber scheduler, dependence analysis, driver
    decisions, the interpreter, the wire byte counters).  A process's
    page renders the registries it hosts.

    Counters and gauges are atomics, so increments from concurrent worker
    domains merge without locks; histograms take a short per-histogram
    lock on observe.  Within one registry instruments are get-or-create
    by name: the same name yields the same instrument. *)

type t
(** A registry. *)

val global : t
(** The process-wide registry of instance-free code. *)

val create : unit -> t
(** A fresh, empty registry. *)

type counter
type gauge
type histogram

val counter : ?help:string -> t -> string -> counter
(** Get or create a monotonic counter.
    @raise Invalid_argument if [name] is not a Prometheus metric name
    ([[a-zA-Z_:][a-zA-Z0-9_:]*]) or exists with a different type; the
    same holds for {!gauge} and {!histogram}. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : ?help:string -> t -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?help:string -> ?buckets:float list -> t -> string -> histogram
(** Get or create a histogram with the given upper bucket bounds (a
    [+Inf] bucket is implicit; default bounds suit second-scale phase
    timings). *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val find : t -> string -> [ `Counter of int | `Gauge of float | `None ]
(** Point read by name, without creating anything. *)

val to_json : t list -> Json.t
(** The snapshot of a page's registries: one object keyed by instrument
    name (sorted; on a name two registries share, the earlier one's),
    each entry [{"type":…, …, "help":…}] — a counter or gauge carries
    ["value"], a histogram ["count"], ["sum"] and per-bound ["buckets"]
    ([{"le":bound,"n":count}], not cumulative). *)

val render : Json.t -> string
(** Prometheus text exposition of a {!to_json} snapshot, one stanza per
    instrument ([# HELP] when there is help text, [# TYPE], then the
    samples, histogram buckets cumulative). *)

val dump : t list -> string
(** [render (to_json ts)] — the [/metrics] page. *)
