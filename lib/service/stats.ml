type t = {
  shard_id : string;
  submitted : int;
  completed : int;
  failed : int;
  timed_out : int;
  cancelled : int;
  retries : int;
  rung_full : int;
  rung_conservative : int;
  rung_passthrough : int;
  degraded : int;
  respawns : int;
  corrupt_dropped : int;
  breaker_opened : int;
  replica_admitted : int;
  replica_rejected : int;
  replicated_hits : int;
  replica_pushed : int;
  replica_skipped_down : int;
  replica_gc : int;
  memo_hits : int;
  memo_misses : int;
  memo_entries : int;
  breaker_state : string;
  faults_injected : int;
  queue_high_water : int;
  cache : Cache.stats;
  cache_hit_rate : float;
  p50_latency_ms : float;
  p95_latency_ms : float;
  max_latency_ms : float;
  latency_count : int;
  wall_s : float;
  throughput : float;
}

(* nearest-rank: the ceil(p/100 * n)-th smallest value *)
let percentile p xs =
  match xs with
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank =
        int_of_float (ceil (p /. 100.0 *. float_of_int n))
      in
      a.(max 0 (min (n - 1) (rank - 1)))

let to_json s =
  let module J = Obs.Json in
  let i name v = (name, J.Int v) and f name v = (name, J.Float v) in
  J.Obj
    [
      ("shard_id", J.String s.shard_id);
      i "submitted" s.submitted;
      i "completed" s.completed;
      i "failed" s.failed;
      i "timed_out" s.timed_out;
      i "cancelled" s.cancelled;
      i "retries" s.retries;
      i "rung_full" s.rung_full;
      i "rung_conservative" s.rung_conservative;
      i "rung_passthrough" s.rung_passthrough;
      i "degraded" s.degraded;
      i "respawns" s.respawns;
      i "corrupt_dropped" s.corrupt_dropped;
      i "breaker_opened" s.breaker_opened;
      i "replica_admitted" s.replica_admitted;
      i "replica_rejected" s.replica_rejected;
      i "replicated_hits" s.replicated_hits;
      i "replica_pushed" s.replica_pushed;
      i "replica_skipped_down" s.replica_skipped_down;
      i "replica_gc" s.replica_gc;
      i "memo_hits" s.memo_hits;
      i "memo_misses" s.memo_misses;
      i "memo_entries" s.memo_entries;
      ("breaker_state", J.String s.breaker_state);
      i "faults_injected" s.faults_injected;
      i "queue_high_water" s.queue_high_water;
      i "cache_hits" s.cache.Cache.hits;
      i "cache_misses" s.cache.Cache.misses;
      i "cache_evictions" s.cache.Cache.evictions;
      i "cache_entries" s.cache.Cache.entries;
      f "cache_hit_rate" s.cache_hit_rate;
      f "p50_latency_ms" s.p50_latency_ms;
      f "p95_latency_ms" s.p95_latency_ms;
      f "max_latency_ms" s.max_latency_ms;
      i "latency_count" s.latency_count;
      f "wall_s" s.wall_s;
      f "throughput" s.throughput;
    ]

let render json =
  let module J = Obs.Json in
  let i k = J.to_int (J.member k json) in
  let f k = J.to_float (J.member k json) in
  let str k = J.to_str (J.member k json) in
  let lines =
    [
      Printf.sprintf "jobs        submitted %d  completed %d  failed %d  timeout %d  cancelled %d"
        (i "submitted") (i "completed") (i "failed") (i "timed_out") (i "cancelled");
      Printf.sprintf "rungs       full %d  conservative %d  passthrough %d  (retries %d)"
        (i "rung_full") (i "rung_conservative") (i "rung_passthrough") (i "retries");
      Printf.sprintf "queue       high-water depth %d" (i "queue_high_water");
      Printf.sprintf "cache       %d hits  %d misses  %d evictions  %d resident  (hit rate %.1f%%)"
        (i "cache_hits") (i "cache_misses") (i "cache_evictions")
        (i "cache_entries") (100.0 *. f "cache_hit_rate");
      Printf.sprintf "memo        %d hits  %d misses  %d resident nests"
        (i "memo_hits") (i "memo_misses") (i "memo_entries");
      Printf.sprintf "latency     p50 %.2f ms  p95 %.2f ms  max %.2f ms  (%d samples)"
        (f "p50_latency_ms") (f "p95_latency_ms") (f "max_latency_ms")
        (i "latency_count");
      Printf.sprintf "throughput  %.1f jobs/s over %.2f s" (f "throughput") (f "wall_s");
    ]
  in
  (* cluster lines only appear on clustered shards *)
  let cluster =
    (if str "shard_id" <> "" then
       [ Printf.sprintf "shard       %s" (str "shard_id") ]
     else [])
    @
    if
      i "replica_admitted" > 0 || i "replica_rejected" > 0
      || i "replicated_hits" > 0 || i "replica_pushed" > 0
      || i "replica_skipped_down" > 0 || i "replica_gc" > 0
    then
      [
        Printf.sprintf
          "replication pushed %d  skipped-down %d  admitted %d  rejected %d  \
           hits-from-replica %d  gc-dropped %d"
          (i "replica_pushed") (i "replica_skipped_down") (i "replica_admitted")
          (i "replica_rejected") (i "replicated_hits") (i "replica_gc");
      ]
    else []
  in
  (* the survival line only appears when something needed surviving *)
  let survival =
    if
      i "respawns" > 0 || i "degraded" > 0 || i "corrupt_dropped" > 0
      || i "breaker_opened" > 0 || i "faults_injected" > 0
      || str "breaker_state" <> "closed"
    then
      [
        Printf.sprintf
          "survival    respawns %d  degraded %d  corrupt-dropped %d  breaker opened %d (now %s)  faults injected %d"
          (i "respawns") (i "degraded") (i "corrupt_dropped")
          (i "breaker_opened") (str "breaker_state") (i "faults_injected");
      ]
    else []
  in
  String.concat "\n" (lines @ cluster @ survival)

let to_string s = render (to_json s)
