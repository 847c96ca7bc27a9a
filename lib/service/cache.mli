(** Content-addressed LRU result cache.

    Keys are digests of the full job content — source text plus every
    option that can change the output (technique set, machine
    configuration, limits) — so two requests share an entry exactly when
    the restructurer would produce byte-identical results for both.
    Bounded: inserting beyond [capacity] evicts the least-recently-used
    entry.  Thread-safe; every operation counts toward the hit/miss/
    eviction statistics. *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** currently resident *)
}

val create : capacity:int -> 'a t
(** A cache holding at most [capacity] entries; [capacity = 0] disables
    caching (every lookup misses, nothing is stored).
    @raise Invalid_argument when [capacity < 0] *)

val digest : string -> string
(** Hex digest of an arbitrary content string — the address. *)

val find : ?valid:('a -> bool) -> 'a t -> string -> 'a option
(** Lookup by key, refreshing the entry's recency.  Counts a hit or a
    miss.  A resident entry failing [valid] (default: none fails) is
    removed, not evicted, and the lookup counts as a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or overwrite) an entry, evicting the LRU entry if the cache
    is full. *)

val remove : 'a t -> string -> unit
(** Drop an entry (no-op when absent).  Used by the server when an
    entry fails its integrity check; not counted as an eviction. *)

val export : 'a t -> (string * 'a) list
(** Snapshot of every resident [(key, value)] pair, in no particular
    order.  Does {e not} refresh recency or count hits — exporting the
    warm set for replication must not perturb the LRU order. *)

val metrics : 'a t -> Obs.Metrics.t
(** The cache's registry, the only storage of the counts {!stats}
    reports. *)

val stats : 'a t -> stats

val hit_rate : stats -> float
(** Hits over lookups, in [0,1]; 0 when no lookups happened. *)
