(** Process-wide metrics registry: named counters, gauges and histograms
    with a JSON snapshot and its [/metrics]-style text rendering.

    Counters and gauges are atomics, so increments from concurrent worker
    domains merge without locks; histograms take a short per-histogram
    lock on observe.  Instruments are get-or-create by name: the same
    name always yields the same instrument, so instrumentation points in
    different modules (or domains) share one time series. *)

type t
(** A registry. *)

val global : t
(** The process-wide default registry every subsystem reports into. *)

val create : unit -> t
(** A private registry (tests). *)

type counter
type gauge
type histogram

val counter : ?help:string -> t -> string -> counter
(** Get or create a monotonic counter.
    @raise Invalid_argument if [name] exists with a different type. *)

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

val to_json : t -> Json.t
(** The registry snapshot: one object keyed by instrument name (sorted),
    each entry [{"type":…, …, "help":…}] — a counter or gauge carries
    ["value"], a histogram ["count"], ["sum"] and per-bound ["buckets"]
    ([{"le":bound,"n":count}], not cumulative). *)

val render : Json.t -> string
(** Prometheus text exposition of a {!to_json} snapshot, one stanza per
    instrument ([# HELP] when there is help text, [# TYPE], then the
    samples, histogram buckets cumulative). *)

val dump : t -> string
(** [render (to_json t)] — the [/metrics] page. *)

val reset : t -> unit
(** Zero every instrument (tests); instruments stay registered. *)
