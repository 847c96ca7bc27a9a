module M = Obs.Metrics

type item = { it_key : string; it_digest : string; it_payload : Service.Server.payload }

type counts = {
  pushed : int;
  admitted : int;
  rejected : int;
  dropped : int;
  errors : int;
  skipped_down : int;
}

(* Push-path peer health: a peer that keeps eating transport errors is
   skipped (counted, not retried) until a cooldown expires, so pushes
   aimed at a dead shard stop burning pool connections.  This is
   deliberately local to the replicator — a shard has no membership
   view; the proxy's prober is the authority, this is just the
   replicator not stepping on the same rake twice per entry. *)
type peer_health = { mutable ph_fails : int; mutable ph_retry_at : float }

let down_after = 2
let cooldown_s = 2.0

(* The mutable state is loop-local, touched only by post thunks and
   fibers on [loop], so none of it takes a lock; [export] and [gc] are
   wired once, before the loop can need them.  The counts are the
   instruments of the replicator's own registry, which [counts] reads
   from any thread. *)
type t = {
  self : string;
  replicas : int;  (* total copies of a key, primary included *)
  vnodes : int;
  timeout_s : float;
  loop : Aio.t;
  mutable ring : Ring.t;
  mutable pools : (string * Upstream.t) list;  (* by shard id, self excluded *)
  health : (string, peer_health) Hashtbl.t;
  mutable export :
    (unit -> (string * string * Service.Server.payload) list) option;
  mutable gc : (keep:(string -> bool) -> int) option;
      (* drops replica-flagged cache entries failing [keep]; wired to
         [Service.Server.gc_replicas] *)
  queue : item Queue.t;
  capacity : int;
  mutable sending : bool;  (* a sender fiber is alive *)
  metrics : M.t;
  pushed : M.counter;
  admitted : M.counter;
  rejected : M.counter;
  dropped : M.counter;
  errors : M.counter;
  skipped : M.counter;
}

let cache_push_of_item it =
  let p = it.it_payload in
  {
    Net.Wire.cp_key = it.it_key;
    cp_digest = it.it_digest;
    cp_name = p.Service.Server.p_name;
    cp_text = p.Service.Server.p_text;
    cp_cycles = p.Service.Server.p_cycles;
    cp_global_words = p.Service.Server.p_global_words;
    cp_notes = List.map Net.Wire.note_of_report p.Service.Server.p_reports;
  }

let target_usable t id now =
  match Hashtbl.find_opt t.health id with
  | None -> true
  | Some ph -> ph.ph_fails < down_after || now >= ph.ph_retry_at

let note_peer_ok t id =
  match Hashtbl.find_opt t.health id with
  | None -> ()
  | Some ph -> ph.ph_fails <- 0

let note_peer_error t id now =
  let ph =
    match Hashtbl.find_opt t.health id with
    | Some ph -> ph
    | None ->
        let ph = { ph_fails = 0; ph_retry_at = 0.0 } in
        Hashtbl.replace t.health id ph;
        ph
  in
  ph.ph_fails <- ph.ph_fails + 1;
  if ph.ph_fails >= down_after then ph.ph_retry_at <- now +. cooldown_s

let send_to t it target =
  let now = Unix.gettimeofday () in
  if not (target_usable t target now) then M.incr t.skipped
  else
    match List.assoc_opt target t.pools with
    | None -> M.incr t.errors
    | Some pool -> (
        match
          Upstream.with_client pool (fun c ->
              Net.Client.cache_push c (cache_push_of_item it))
        with
        | Ok admitted ->
            note_peer_ok t target;
            M.incr t.pushed;
            M.incr (if admitted then t.admitted else t.rejected)
        | Error _ ->
            note_peer_error t target (Unix.gettimeofday ());
            M.incr t.errors)

(* the key's first R-1 distinct ring successors after this shard —
   under R total copies, where every replica of the key belongs *)
let send_one t it =
  Ring.successors t.ring t.self ~key:it.it_key ~n:(t.replicas - 1)
  |> List.iter (fun target -> send_to t it target)

(* The sender fiber lives exactly while the queue is non-empty, so an
   idle replicator holds no fiber and never keeps its loop from
   finishing; entries queued when the loop drains are still sent. *)
let rec send_queued t =
  match Queue.take_opt t.queue with
  | None -> t.sending <- false
  | Some it ->
      (try send_one t it with _ -> M.incr t.errors);
      send_queued t

let count_dropped t = M.incr t.dropped

(* on the loop, outside a fiber *)
let enqueue t it =
  if Queue.length t.queue >= t.capacity then count_dropped t
  else begin
    Queue.push it t.queue;
    if not t.sending then begin
      t.sending <- true;
      ignore (Aio.spawn_on t.loop (fun () -> send_queued t))
    end
  end

let make_pools ~timeout_s ~self peers =
  peers
  |> List.filter (fun s -> s.Membership.sh_id <> self)
  |> List.map (fun s ->
         let cfg =
           {
             (Net.Client.default_cfg ~port:s.Membership.sh_port) with
             Net.Client.host = s.Membership.sh_host;
             connect_timeout_s = timeout_s;
             request_timeout_s = timeout_s;
             max_attempts = 2;
           }
         in
         (s.Membership.sh_id, Upstream.create ~max_idle:2 cfg))

let create ?(vnodes = 64) ?(queue_capacity = 256) ?(timeout_s = 5.0)
    ?(replicas = 2) ~self ~peers loop =
  let ids = List.map (fun s -> s.Membership.sh_id) peers in
  let metrics = M.create () in
  let counter name help = M.counter metrics ~help name in
  {
    self;
    replicas = max 1 replicas;
    vnodes;
    timeout_s;
    loop;
    ring = Ring.make ~vnodes ids;
    pools = make_pools ~timeout_s ~self peers;
    health = Hashtbl.create 8;
    export = None;
    gc = None;
    queue = Queue.create ();
    capacity = max 1 queue_capacity;
    sending = false;
    metrics;
    pushed =
      counter "cluster_replication_pushed_total"
        "warm-cache entries pushed to a ring successor";
    admitted =
      counter "cluster_replication_admitted_total"
        "warm-cache pushes admitted by the peer";
    rejected =
      counter "cluster_replication_rejected_total"
        "warm-cache pushes the peer rejected";
    dropped =
      counter "cluster_replication_dropped_total"
        "warm-cache pushes dropped on a full queue";
    errors =
      counter "cluster_replication_errors_total"
        "warm-cache pushes lost to transport errors";
    skipped =
      counter "cluster_replication_skipped_down_total"
        "warm-cache pushes skipped because the target was held down";
  }

(* worker domains hand the item to the loop; once the loop has
   finished nothing can send it, so it is counted as dropped *)
let push t ~key ~digest payload =
  let it = { it_key = key; it_digest = digest; it_payload = payload } in
  if not (Aio.post t.loop (fun () -> enqueue t it)) then count_dropped t

let set_export t f = t.export <- Some f
let set_gc t f = t.gc <- Some f

(* does [self] still back [key] under [ring]?  A shard backs a key when
   it is the owner or one of the first [replicas - 1] distinct
   successors — exactly the set an origin pushes to, so GC and push
   placement can never disagree. *)
let backs ring ~self ~replicas key =
  List.mem self (Ring.route ring key ~n:replicas)

let close_pools t = List.iter (fun (_, p) -> Upstream.close p) t.pools

let set_members t peers =
  let ids = List.map (fun s -> s.Membership.sh_id) peers in
  t.ring <- Ring.make ~vnodes:t.vnodes ids;
  close_pools t;
  t.pools <- make_pools ~timeout_s:t.timeout_s ~self:t.self peers;
  Hashtbl.reset t.health;
  (* replica GC first: entries this shard held as a successor but no
     longer backs under the new ring are dropped before the re-export
     below, so an ex-successor neither re-pushes nor keeps serving
     entries that now belong elsewhere *)
  (match t.gc with
  | None -> ()
  | Some f ->
      ignore (f ~keep:(backs t.ring ~self:t.self ~replicas:t.replicas)));
  (* re-replication: placement moved under the new ring, so every
     resident entry is re-queued once.  Receivers re-verify and
     deduplicate (an entry already resident is just re-admitted), and
     this is a one-shot pass, not hook-driven — no ping-pong. *)
  match t.export with
  | None -> ()
  | Some f ->
      List.iter
        (fun (key, digest, payload) -> push t ~key ~digest payload)
        (f ())

let replicas t = t.replicas

let metrics t = t.metrics

let counts t =
  let v = M.counter_value in
  {
    pushed = v t.pushed;
    admitted = v t.admitted;
    rejected = v t.rejected;
    dropped = v t.dropped;
    errors = v t.errors;
    skipped_down = v t.skipped;
  }

(* on the loop while it runs; at once after it has finished *)
let stop t =
  if not (Aio.post t.loop (fun () -> close_pools t)) then close_pools t
