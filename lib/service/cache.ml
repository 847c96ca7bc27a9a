(* LRU via lazy deletion: every access stamps the entry with a fresh tick
   and appends (key, tick) to a recency queue.  Eviction pops the queue
   until it finds a pair whose tick still matches the entry's — stale
   pairs (the entry was touched again later, or already evicted) are
   discarded.  Amortized O(1); the queue never exceeds one pair per
   table operation. *)

type 'a entry = { value : 'a; mutable stamp : int }

type 'a t = {
  table : (string, 'a entry) Hashtbl.t;
  recency : (string * int) Queue.t;
  capacity : int;
  mutex : Mutex.t;
  mutable tick : int;
  metrics : Obs.Metrics.t;
  hits : Obs.Metrics.counter;
  misses : Obs.Metrics.counter;
  evictions : Obs.Metrics.counter;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: capacity < 0";
  let metrics = Obs.Metrics.create () in
  let counter name help = Obs.Metrics.counter metrics ~help name in
  {
    table = Hashtbl.create (max 16 capacity);
    recency = Queue.create ();
    capacity;
    mutex = Mutex.create ();
    tick = 0;
    metrics;
    hits =
      counter "service_cache_hits_total" "cache lookups served from the table";
    misses = counter "service_cache_misses_total" "cache lookups that missed";
    evictions =
      counter "service_cache_evictions_total"
        "entries evicted to stay under capacity";
  }

let metrics c = c.metrics

let digest content = Digest.to_hex (Digest.string content)

let with_lock c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

let touch c key e =
  c.tick <- c.tick + 1;
  e.stamp <- c.tick;
  Queue.push (key, c.tick) c.recency

let find ?(valid = fun _ -> true) c key =
  with_lock c (fun () ->
      match Hashtbl.find_opt c.table key with
      | Some e when valid e.value ->
          Obs.Metrics.incr c.hits;
          touch c key e;
          Some e.value
      | found ->
          (* an invalid entry is dropped like [remove] drops it *)
          if Option.is_some found then Hashtbl.remove c.table key;
          Obs.Metrics.incr c.misses;
          None)

let evict_lru c =
  let rec go () =
    match Queue.take_opt c.recency with
    | None -> ()
    | Some (key, stamp) -> (
        match Hashtbl.find_opt c.table key with
        | Some e when e.stamp = stamp ->
            Hashtbl.remove c.table key;
            Obs.Metrics.incr c.evictions
        | _ -> go () (* stale pair: entry touched since, or gone *))
  in
  go ()

let add c key value =
  if c.capacity > 0 then
    with_lock c (fun () ->
        (match Hashtbl.find_opt c.table key with
        | Some _ -> Hashtbl.remove c.table key
        | None ->
            if Hashtbl.length c.table >= c.capacity then evict_lru c);
        let e = { value; stamp = 0 } in
        touch c key e;
        Hashtbl.add c.table key e)

let remove c key =
  with_lock c (fun () ->
      (* the recency queue's pairs for this key go stale and are skipped
         by evict_lru; not counted as an eviction (the caller dropped it
         deliberately, e.g. on a checksum mismatch) *)
      Hashtbl.remove c.table key)

let export c =
  with_lock c (fun () ->
      (* a snapshot, deliberately without touching recency: exporting for
         replication must not perturb the LRU order *)
      Hashtbl.fold (fun key e acc -> (key, e.value) :: acc) c.table [])

let stats c =
  with_lock c (fun () ->
      {
        hits = Obs.Metrics.counter_value c.hits;
        misses = Obs.Metrics.counter_value c.misses;
        evictions = Obs.Metrics.counter_value c.evictions;
        entries = Hashtbl.length c.table;
      })

let hit_rate (s : stats) =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups
