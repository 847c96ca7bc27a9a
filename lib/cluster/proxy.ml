(* The proxy rides the same Aio fiber scheduler as Net.Server: one
   event-loop thread runs an accept fiber plus, per client connection,
   a reader fiber (Wire.Stream decode, per-frame deadlines) and a
   writer fiber (the single producer on the socket, so pipelined
   replies never interleave).  Each admitted submit gets a relay fiber
   that makes its shard round trip itself, on a fiber-side
   Net.Client connection ([Net.Client.connect_fiber]) checked out of
   the shard's Upstream pool: connect, send and reply all suspend the
   fiber on the same loop.  At most [upstream_width] round trips run
   at once; excess relays suspend for a slot.  The membership prober
   and any metrics endpoint are fibers on the same loop.  The loop is
   the only thread that touches upstreams and the topology barrier, so
   neither takes a lock.  Every count is an instrument of the proxy's
   own registry, which the stats and members views read.  The proxy's
   one thread is the loop, however many requests are in flight. *)

module M = Obs.Metrics

type cfg = {
  host : string;
  port : int;
  max_conns : int;
  max_inflight : int;
  failover : int;
  read_timeout_s : float;
  shard_timeout_s : float;
}

let default_cfg =
  {
    host = "127.0.0.1";
    port = 0;
    max_conns = 64;
    max_inflight = 256;
    failover = 2;
    read_timeout_s = 30.0;
    shard_timeout_s = 60.0;
  }

type conn = {
  c_fd : Unix.file_descr;
  c_out : string Aio.Mailbox.mb;  (* encoded frames for the writer *)
  mutable c_dead : bool;
  mutable c_alive : int;  (* reader + outstanding relay fibers *)
}

(* one shard's upstream side: its connection pool and route counter *)
type upstream = { u_pool : Upstream.t; u_routed : M.counter }

type t = {
  cfg : cfg;
  members : Membership.t;
  mutable upstreams : (string * upstream) list;  (* by shard id *)
  listen_fd : Unix.file_descr;
  bound_port : int;
  sched : Aio.t;
  stop : bool Atomic.t;
  draining : bool Atomic.t;
  mutable inflight : int;
  metrics : M.t;
  m_failovers : M.counter;
  m_shed : M.counter;
  m_inflight : M.gauge;
  m_stale_routes : M.counter;
  m_read_repairs : M.counter;
  m_topo_changes : M.counter;  (* the topology generation, too *)
  slots : unit Aio.Mailbox.mb;  (* one token per upstream round trip *)
  (* Topology barrier: a membership change drains in-flight relays
     against the old ring before the new one routes anything.  Relays
     enter with [relay_begin] (suspending while a change drains) and
     leave with [relay_end]; [change_topology] flips [topo_draining],
     waits for [active_relays] to hit zero, mutates, and releases.
     Waiters park on [topo_wake]; closing it wakes them all. *)
  mutable topo_draining : bool;
  mutable active_relays : int;
  mutable topo_wake : unit Aio.Mailbox.mb;
  scratch : Bytes.t;
  mutable conns : conn list;  (* loop thread only *)
  mutable accept_fiber : Aio.fiber option;
  mutable probe_fiber : Aio.fiber option;
  mutable loop_thread : Thread.t option;
  mutable scrapes : Net.Metrics_http.t list;  (* stopped at drain *)
}

(* [cluster_route_<id>_total] with the id escaped the way Prometheus
   escapes names: '_' doubled and '.' and '-' written [_2e_] and [_2d_].
   Ids are [A-Za-z0-9_.-]+, so the name is valid, and it is distinct for
   distinct ids; an id of letters and digits is kept as it is. *)
let route_metric_name id =
  let b = Buffer.create (String.length id + 24) in
  Buffer.add_string b "cluster_route_";
  String.iter
    (function
      | '_' -> Buffer.add_string b "__"
      | ('.' | '-') as c -> Printf.bprintf b "_%x_" (Char.code c)
      | c -> Buffer.add_char b c)
    id;
  Buffer.add_string b "_total";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let kill_conn conn =
  conn.c_dead <- true;
  try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let send_frame conn frame =
  if not conn.c_dead then ignore (Aio.Mailbox.put conn.c_out frame)

let send conn ~id msg = send_frame conn (Net.Wire.encode ~id msg)

let writer t conn =
  let rec loop () =
    match Aio.Mailbox.take conn.c_out with
    | None -> ()
    | Some s ->
        if not conn.c_dead then begin
          let b = Bytes.unsafe_of_string s in
          match
            Aio.write_all
              ~deadline:(Aio.now () +. 30.0)
              conn.c_fd b 0 (Bytes.length b)
          with
          | `Ok -> ()
          | `Deadline | `Closed -> kill_conn conn
        end;
        loop ()
  in
  loop ();
  (* the writer is the last fiber out: producers closed the mailbox *)
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> not (c == conn)) t.conns

(* reader and relay fibers are the producers on [c_out]; the last one
   to finish closes the mailbox, which lets the writer drain and close *)
let producer_finished conn =
  conn.c_alive <- conn.c_alive - 1;
  if conn.c_alive = 0 then Aio.Mailbox.close conn.c_out

(* ------------------------------------------------------------------ *)
(* Topology barrier                                                    *)
(* ------------------------------------------------------------------ *)

let topo_wait t = ignore (Aio.Mailbox.take t.topo_wake)

let topo_broadcast t =
  let mb = t.topo_wake in
  t.topo_wake <- Aio.Mailbox.create ();
  Aio.Mailbox.close mb

let relay_begin t =
  while t.topo_draining do
    topo_wait t
  done;
  t.active_relays <- t.active_relays + 1

let relay_end t =
  t.active_relays <- t.active_relays - 1;
  if t.active_relays = 0 && t.topo_draining then topo_broadcast t

(* every relay that touches the ring or the upstreams runs inside the
   barrier, so [change_topology] swaps both with nothing in flight *)
let with_relay_barrier t f =
  relay_begin t;
  Fun.protect ~finally:(fun () -> relay_end t) f

(* Serialize membership changes and drain relays routed on the old
   ring: waiters in [relay_begin] do not hold [active_relays], so the
   drain only waits on relays already past the barrier — bounded by
   the shard round-trip timeout.  [mutate] must not suspend. *)
let change_topology t mutate =
  while t.topo_draining do
    topo_wait t
  done;
  t.topo_draining <- true;
  while t.active_relays > 0 do
    topo_wait t
  done;
  Fun.protect
    ~finally:(fun () ->
      t.topo_draining <- false;
      topo_broadcast t)
    (fun () ->
      let result = mutate () in
      if Result.is_ok result then M.incr t.m_topo_changes;
      result)

(* ------------------------------------------------------------------ *)
(* Relaying                                                            *)
(* ------------------------------------------------------------------ *)

let upstream_width = 16

let upstream_of t id = List.assoc_opt id t.upstreams

(* One round trip to a shard, holding one of the [upstream_width]
   slots *)
let with_upstream t u f =
  ignore (Aio.Mailbox.take t.slots);
  Fun.protect ~finally:(fun () -> ignore (Aio.Mailbox.put t.slots ()))
  @@ fun () -> Upstream.with_client u.u_pool f

let close_upstream u = Upstream.close u.u_pool

let try_reserve t =
  if t.inflight >= t.cfg.max_inflight then false
  else begin
    t.inflight <- t.inflight + 1;
    M.set_gauge t.m_inflight (float_of_int t.inflight);
    true
  end

let release t =
  t.inflight <- t.inflight - 1;
  M.set_gauge t.m_inflight (float_of_int t.inflight)

let count_shed t = M.incr t.m_shed

(* Read-repair: a warm full-rung hit served by a shard that is not the
   key's current ring owner (failover landed it there, or ownership
   moved under a topology change) is pushed back to the owner by a
   fire-and-forget fiber, so the next request for the key routes
   straight into a warm cache.  Ownership is checked first: only a
   misplaced reply, and its Submit for the name, are decoded.  The
   fiber takes a slot of the in-flight budget like any relay; being
   best-effort, it is skipped when none is left. *)
let schedule_read_repair t ~key ~served_by ~submit reply =
  match Ring.lookup (Membership.ring t.members) key with
  | Some owner when owner <> served_by -> (
      match (Net.Wire.decode reply, Net.Wire.decode submit) with
      | ( Ok
            ( _,
              Net.Wire.Result
                (Net.Wire.R_done
                  {
                    r_cached = true;
                    r_rung = Service.Server.Full;
                    r_text;
                    r_cycles;
                    r_global_words;
                    r_notes;
                    _;
                  }) ),
          Ok (_, Net.Wire.Submit s) ) ->
          let p =
            {
              Net.Wire.cp_key = key;
              cp_digest = Service.Cache.digest r_text;
              cp_name = s.Net.Wire.sub_name;
              cp_text = r_text;
              cp_cycles = r_cycles;
              cp_global_words = r_global_words;
              cp_notes = r_notes;
            }
          in
          if try_reserve t then
            ignore
              (Aio.spawn (fun () ->
                   Fun.protect ~finally:(fun () -> release t) @@ fun () ->
                   with_relay_barrier t (fun () ->
                       match upstream_of t owner with
                       | None -> ()
                       | Some u -> (
                           match
                             with_upstream t u (fun c ->
                                 Net.Client.cache_push c p)
                           with
                           | Ok _ -> M.incr t.m_read_repairs
                           | Error _ ->
                               Membership.note_failure t.members owner))))
      | _ -> ())
  | _ -> ()

let overloaded_reply =
  Net.Wire.encode ~id:0 (Net.Wire.Result Net.Wire.R_overloaded)

(* Walk the candidates with the client's Submit frame as it arrived,
   routed on its content address [key]; the reply frame comes back
   undecoded.  A typed reply from a shard — any reply, even Overloaded
   from its admission control — proves the shard is alive; only
   R_overloaded, read off the tag byte, justifies trying the next
   candidate (the successor may have room).  A transport error, or a
   reply that is not a Result, demotes the shard and moves on. *)
let relay_submit t ~key submit =
  let ring, _epoch = Membership.ring_epoch t.members in
  let gen0 = M.counter_value t.m_topo_changes in
  let candidates = Ring.route ring key ~n:(max 1 t.cfg.failover) in
  let rec go i = function
    | [] ->
        count_shed t;
        overloaded_reply
    | shard_id :: rest -> (
        let try_next () = go (i + 1) rest in
        (* the barrier guarantees no membership change lands while this
           relay is in flight; the counter proves it stays that way *)
        if M.counter_value t.m_topo_changes <> gen0 then
          M.incr t.m_stale_routes;
        match upstream_of t shard_id with
        | None -> try_next ()
        | Some u -> (
            match
              with_upstream t u (fun c -> Net.Client.request_frame c submit)
            with
            | Ok reply when Net.Wire.peek_reply reply <> None -> (
                Membership.note_success t.members shard_id;
                match Net.Wire.peek_reply reply with
                | Some `Overloaded when rest <> [] ->
                    (* saturated, not dead: spill to the successor *)
                    try_next ()
                | _ ->
                    M.incr u.u_routed;
                    if i > 0 then M.incr t.m_failovers;
                    schedule_read_repair t ~key ~served_by:shard_id ~submit
                      reply;
                    reply)
            | Ok _ | Error _ ->
                Membership.note_failure t.members shard_id;
                try_next ()))
  in
  go 0 candidates

(* Cache pushes addressed to the proxy are forwarded to the key's owner
   — lets tooling seed the cluster's warm cache through the front door. *)
let relay_cache_push t (p : Net.Wire.cache_push) =
  match Ring.lookup (Membership.ring t.members) p.Net.Wire.cp_key with
  | None -> false
  | Some shard_id -> (
      match upstream_of t shard_id with
      | None -> false
      | Some u -> (
          match with_upstream t u (fun c -> Net.Client.cache_push c p) with
          | Ok admitted -> admitted
          | Error _ ->
              Membership.note_failure t.members shard_id;
              false))

(* ------------------------------------------------------------------ *)
(* Cluster-wide observability                                          *)
(* ------------------------------------------------------------------ *)

(* the proxy process's page: its own registry, its membership view's
   and the instance-free global one *)
let page t = [ t.metrics; Membership.metrics t.members; M.global ]
let metrics t = t.metrics

(* the sum of every route counter, removed shards' included *)
let routed_total t =
  match M.to_json [ t.metrics ] with
  | Obs.Json.Obj entries ->
      List.fold_left
        (fun n (name, e) ->
          if String.starts_with ~prefix:"cluster_route_" name then
            n + Obs.Json.to_int (Obs.Json.member "value" e)
          else n)
        0 entries
  | _ -> 0

(* per-shard fetch for the aggregated views; Down shards are reported
   as unreachable without being dialed *)
let fetch_from_shard t (shard : Membership.shard) st f =
  if st = Membership.Down then Error "down"
  else
    match upstream_of t shard.Membership.sh_id with
    | None -> Error "unknown shard"
    | Some u -> with_upstream t u f

(* a live shard's stats object; [Null] when it is down, unreachable
   or answers something that does not parse *)
let shard_stats t shard st =
  match fetch_from_shard t shard st Net.Client.stats_json with
  | Ok body -> Result.value ~default:Obs.Json.Null (Obs.Json.parse body)
  | Error _ -> Obs.Json.Null

let count c = Obs.Json.Int (M.counter_value c)

(* the [cedarctl stats] view of a proxy: its routing counters and
   membership, then every shard's stats object ([null] when
   unreachable) *)
let aggregated_stats_json t =
  let module J = Obs.Json in
  let shards =
    Membership.snapshot t.members
    |> List.map (fun ((shard : Membership.shard), st, _) ->
           (shard.Membership.sh_id, shard_stats t shard st))
  in
  J.Obj
    [
      ( "proxy",
        J.Obj
          [
            ("routed", J.Int (routed_total t));
            ("failovers", count t.m_failovers);
            ("shed", count t.m_shed);
            ("members", Membership.members_json t.members);
          ] );
      ("shards", J.Obj shards);
    ]

let replica_counter_keys =
  [
    "replica_admitted";
    "replica_rejected";
    "replicated_hits";
    "replica_pushed";
    "replica_skipped_down";
  ]

(* the [cedarctl cluster members] view: ring epoch, per-shard state,
   and each live shard's replication counters in one object *)
let enriched_members_json t =
  let module J = Obs.Json in
  let shards =
    Membership.snapshot t.members
    |> List.map (fun ((shard : Membership.shard), st, fails) ->
           let stats = shard_stats t shard st in
           let counters =
             List.filter_map
               (fun k ->
                 match J.member k stats with
                 | J.Int _ as v -> Some (k, v)
                 | _ -> None)
               replica_counter_keys
           in
           let idle =
             match upstream_of t shard.Membership.sh_id with
             | Some u -> Upstream.idle u.u_pool
             | None -> 0
           in
           J.Obj
             ([
                ("id", J.String shard.Membership.sh_id);
                ("host", J.String shard.Membership.sh_host);
                ("port", J.Int shard.Membership.sh_port);
                ("state", J.String (Membership.state_name st));
                ("fails", J.Int fails);
                ("pool_idle", J.Int idle);
              ]
             @ counters))
  in
  J.Obj
    [
      ("epoch", J.Int (Membership.epoch t.members));
      ("vnodes", J.Int (Membership.vnodes t.members));
      ( "proxy",
        J.Obj
          [
            ("routed", J.Int (routed_total t));
            ("failovers", count t.m_failovers);
            ("shed", count t.m_shed);
            ("stale_routes", count t.m_stale_routes);
            ("read_repairs", count t.m_read_repairs);
            ("topology_changes", count t.m_topo_changes);
          ] );
      ("shards", J.List shards);
    ]

(* ------------------------------------------------------------------ *)
(* Topology changes                                                    *)
(* ------------------------------------------------------------------ *)

let shard_upstream cfg reg (s : Membership.shard) =
  {
    u_pool =
      Upstream.create
        {
          (Net.Client.default_cfg ~port:s.Membership.sh_port) with
          Net.Client.host = s.Membership.sh_host;
          connect_timeout_s = Float.min 5.0 cfg.shard_timeout_s;
          request_timeout_s = cfg.shard_timeout_s;
          max_attempts = 2;
        };
    u_routed =
      M.counter reg ~help:"submits routed to this shard"
        (route_metric_name s.Membership.sh_id);
  }

(* Best-effort fan-out of an applied change to the shards themselves:
   each cedard rewires its replicator's ring on receipt.  A shard that
   misses the broadcast (down, restarting) is tolerated — its
   replicas land per the old ring until the next change or restart,
   and the receiving side re-verifies every push regardless. *)
let broadcast_change t ?skip msg =
  Membership.snapshot t.members
  |> List.iter (fun ((shard : Membership.shard), st, _) ->
         let id = shard.Membership.sh_id in
         if st <> Membership.Down && skip <> Some id then
           match upstream_of t id with
           | None -> ()
           | Some u ->
               ignore
                 (with_upstream t u (fun c ->
                      match msg with
                      | `Add a -> Result.map ignore (Net.Client.cluster_add c a)
                      | `Remove sid ->
                          Result.map ignore (Net.Client.cluster_remove c sid))))

let refused t msg =
  { Net.Wire.ack_ok = false; ack_epoch = Membership.epoch t.members; ack_msg = msg }

let handle_cluster_add t (a : Net.Wire.cluster_add) =
  let shard =
    {
      Membership.sh_id = a.Net.Wire.ca_id;
      sh_host = a.Net.Wire.ca_host;
      sh_port = a.Net.Wire.ca_port;
    }
  in
  let outcome =
    (* the id lands in specs and JSON views: refuse it before draining
       anything *)
    if not (Membership.valid_id shard.Membership.sh_id) then
      Error
        (Printf.sprintf "shard id %S must be [A-Za-z0-9_.-]+"
           shard.Membership.sh_id)
    else
      change_topology t (fun () ->
          match Membership.add_shard t.members shard with
          | Error _ as e -> e
          | Ok epoch ->
              if not (List.mem_assoc shard.Membership.sh_id t.upstreams) then
                t.upstreams <-
                  (shard.Membership.sh_id, shard_upstream t.cfg t.metrics shard)
                  :: t.upstreams;
              Ok epoch)
  in
  match outcome with
  | Ok epoch ->
      broadcast_change t ~skip:shard.Membership.sh_id (`Add a);
      {
        Net.Wire.ack_ok = true;
        ack_epoch = epoch;
        ack_msg =
          Printf.sprintf "added %s (%s:%d); ring epoch %d" a.Net.Wire.ca_id
            a.Net.Wire.ca_host a.Net.Wire.ca_port epoch;
      }
  | Error msg -> refused t msg

let handle_cluster_remove t sid =
  let outcome =
    change_topology t (fun () ->
        match Membership.remove_shard t.members sid with
        | Error _ as e -> e
        | Ok epoch ->
            let closing = upstream_of t sid in
            t.upstreams <- List.remove_assoc sid t.upstreams;
            Ok (epoch, closing))
  in
  match outcome with
  | Ok (epoch, closing) ->
      Option.iter close_upstream closing;
      broadcast_change t (`Remove sid);
      {
        Net.Wire.ack_ok = true;
        ack_epoch = epoch;
        ack_msg = Printf.sprintf "removed %s; ring epoch %d" sid epoch;
      }
  | Error msg -> refused t msg

(* ------------------------------------------------------------------ *)
(* Per-connection fibers                                               *)
(* ------------------------------------------------------------------ *)

(* submits, and admin requests that make shard round trips, run as
   relay fibers; [work] returns the reply frame, stamped with [id] *)
let spawn_relay t conn ~id work =
  conn.c_alive <- conn.c_alive + 1;
  ignore
    (Aio.spawn (fun () ->
         let reply =
           try work ()
           with _ ->
             Net.Wire.encode ~id
               (Net.Wire.Result (Net.Wire.R_error "proxy relay failed"))
         in
         send_frame conn reply;
         release t;
         producer_finished conn))

(* reserve the in-flight budget and relay [work] on its own fiber, or
   answer [busy] at once ([counted] sheds add to the shed total) *)
let relay_or_busy t conn ~id ?(counted = false) ~busy work =
  if try_reserve t then spawn_relay t conn ~id work
  else begin
    if counted then count_shed t;
    send conn ~id busy
  end

let overloaded = Net.Wire.Result Net.Wire.R_overloaded

let topology_busy t =
  Net.Wire.Cluster_ack (refused t "proxy overloaded; retry the membership change")

(* a Submit is relayed as the frame it arrived in, id rewritten both
   ways *)
let relay_raw_submit t conn ~key frame =
  let id = Net.Wire.frame_id frame in
  relay_or_busy t conn ~id ~counted:true ~busy:overloaded (fun () ->
      Net.Wire.with_id
        (with_relay_barrier t (fun () -> relay_submit t ~key frame))
        id)

let dispatch t conn ~id msg =
  let routed work () = Net.Wire.encode ~id (with_relay_barrier t work) in
  let reply work () = Net.Wire.encode ~id (work ()) in
  match msg with
  | Net.Wire.Ping ->
      send conn ~id Net.Wire.Pong;
      `Continue
  | Net.Wire.Submit _ ->
      (* unreachable: the reader relays every Submit frame raw *)
      send conn ~id (Net.Wire.Result (Net.Wire.R_error "proxy relay failed"));
      `Continue
  | Net.Wire.Cache_push p ->
      relay_or_busy t conn ~id ~counted:true ~busy:(Net.Wire.Cache_ack false)
        (routed (fun () -> Net.Wire.Cache_ack (relay_cache_push t p)));
      `Continue
  | Net.Wire.Stats_json_req ->
      relay_or_busy t conn ~id ~busy:overloaded
        (routed (fun () ->
             Net.Wire.Stats_json (Obs.Json.to_string (aggregated_stats_json t))));
      `Continue
  | Net.Wire.Members_json_req ->
      relay_or_busy t conn ~id ~busy:overloaded
        (routed (fun () ->
             Net.Wire.Members_json (Obs.Json.to_string (enriched_members_json t))));
      `Continue
  (* topology changes take the drain side of the barrier, never the
     relay side — not [routed] *)
  | Net.Wire.Cluster_add a ->
      relay_or_busy t conn ~id ~busy:(topology_busy t)
        (reply (fun () -> Net.Wire.Cluster_ack (handle_cluster_add t a)));
      `Continue
  | Net.Wire.Cluster_remove sid ->
      relay_or_busy t conn ~id ~busy:(topology_busy t)
        (reply (fun () -> Net.Wire.Cluster_ack (handle_cluster_remove t sid)));
      `Continue
  | Net.Wire.Metrics_json_req ->
      send conn ~id
        (Net.Wire.Metrics_json (Obs.Json.to_string (M.to_json (page t))));
      `Continue
  | Net.Wire.Shutdown_req ->
      (* stops the proxy only; shards are shut down by their own owners *)
      send conn ~id Net.Wire.Shutdown_ack;
      Atomic.set t.stop true;
      (match t.accept_fiber with Some f -> Aio.cancel f | None -> ());
      `Close
  | Net.Wire.Pong | Net.Wire.Result _ | Net.Wire.Shutdown_ack
  | Net.Wire.Cache_ack _ | Net.Wire.Stats_json _ | Net.Wire.Metrics_json _
  | Net.Wire.Cluster_ack _ | Net.Wire.Members_json _ ->
      send conn ~id
        (Net.Wire.Result
           (Net.Wire.R_error
              (Printf.sprintf "unexpected %s frame from a client"
                 (Net.Wire.message_kind_name msg))));
      `Close

(* A Submit is relayed as it arrived; a frame that does not decode, a
   malformed Submit included, is answered on id 0 and ends the
   connection: it never reaches a shard.  Same read deadlines as
   Net.Server. *)
let reader t conn =
  let fail err =
    send conn ~id:0
      (Net.Wire.Result (Net.Wire.R_error (Net.Wire.error_to_string err)));
    false
  in
  let handle = function
    | `Frame frame -> (
        match Net.Wire.submit_key frame with
        | Some (Ok key) ->
            relay_raw_submit t conn ~key frame;
            true
        | Some (Error err) -> fail err
        | None -> (
            match Net.Wire.decode frame with
            | Error err -> fail err
            | Ok (id, msg) -> dispatch t conn ~id msg = `Continue))
    | `Oversized (id, got) ->
        send conn ~id
          (Net.Wire.Result
             (Net.Wire.R_too_large { limit = Net.Wire.hard_max_payload; got }));
        true
    | `Fail err -> fail err
  in
  (try
     match
       Net.Server.read_frames ~timeout_s:t.cfg.read_timeout_s
         ~alive:(fun () -> not (conn.c_dead || Atomic.get t.draining))
         conn.c_fd (Net.Wire.Stream.create ()) t.scratch handle
     with
     | `Deadline -> kill_conn conn
     | `Eof | `Stopped -> ()
   with _ -> ());
  producer_finished conn

(* ------------------------------------------------------------------ *)
(* Accept fiber / lifecycle                                            *)
(* ------------------------------------------------------------------ *)

let handle_accept t fd =
  if Atomic.get t.stop then (
    try Unix.close fd with Unix.Unix_error _ -> ())
  else if List.length t.conns >= t.cfg.max_conns then begin
    count_shed t;
    Net.Server.refuse fd
  end
  else begin
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let conn =
      {
        c_fd = fd;
        c_out = Aio.Mailbox.create ();
        c_dead = false;
        c_alive = 1;
      }
    in
    t.conns <- conn :: t.conns;
    ignore (Aio.spawn (fun () -> writer t conn));
    ignore (Aio.spawn (fun () -> reader t conn))
  end

let accept_loop t =
  Aio.accept_each ~stop:t.stop t.listen_fd (handle_accept t);
  Atomic.set t.stop true

let create ?(cfg = default_cfg) ?(vnodes = 64) ?(probe_ms = 500.0)
    ?(down_after = 2) ?(seed = 0x5eed) shards =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let members =
    Membership.create ~vnodes ~probe_ms ~down_after
      ~timeout_s:(Float.min 1.0 cfg.shard_timeout_s) ~seed shards
  in
  let metrics = M.create () in
  let counter name help = M.counter metrics ~help name in
  let upstreams =
    List.map
      (fun (s : Membership.shard) ->
        (s.Membership.sh_id, shard_upstream cfg metrics s))
      shards
  in
  let listen_fd, bound_port =
    Aio.listen ~host:cfg.host ~port:cfg.port ~backlog:64
  in
  let t =
    {
      cfg;
      members;
      upstreams;
      listen_fd;
      bound_port;
      sched = Aio.create ();
      stop = Atomic.make false;
      draining = Atomic.make false;
      inflight = 0;
      metrics;
      m_failovers =
        counter "cluster_failover_total"
          "submits served by a ring successor after the owner failed";
      m_shed =
        counter "cluster_proxy_shed_total"
          "requests shed by the proxy (budget or no live shard)";
      m_inflight =
        M.gauge metrics ~help:"submits in flight through the proxy"
          "cluster_proxy_inflight";
      m_stale_routes =
        counter "cluster_proxy_stale_routes_total"
          "relays whose routing decision predates a topology change";
      m_read_repairs =
        counter "cluster_read_repair_total"
          "warm hits pushed back to the key's current ring owner";
      m_topo_changes =
        counter "cluster_topology_changes_total"
          "membership changes applied through the proxy";
      slots = Aio.Mailbox.create ~capacity:upstream_width ();
      topo_draining = false;
      active_relays = 0;
      topo_wake = Aio.Mailbox.create ();
      scratch = Bytes.create 65536;
      conns = [];
      accept_fiber = None;
      probe_fiber = None;
      loop_thread = None;
      scrapes = [];
    }
  in
  t.loop_thread <-
    Some
      (Thread.create
         (fun () ->
           Aio.run t.sched (fun () ->
               for _ = 1 to upstream_width do
                 ignore (Aio.Mailbox.put t.slots ())
               done;
               t.probe_fiber <-
                 Some
                   (Aio.spawn (fun () ->
                        try Membership.probe_loop members
                        with Aio.Cancelled -> ()));
               t.accept_fiber <- Some (Aio.self ());
               accept_loop t))
         ());
  t

let port t = t.bound_port
let membership t = t.members

let attach_metrics t ~port =
  let ep =
    Net.Metrics_http.start ~host:t.cfg.host ~port t.sched (fun () ->
        M.dump (page t))
  in
  t.scrapes <- ep :: t.scrapes;
  ep

let request_stop t =
  Atomic.set t.stop true;
  ignore
    (Aio.post t.sched (fun () ->
         Option.iter (Aio.cancel_on t.sched) t.accept_fiber))

let wait_stop t =
  while not (Atomic.get t.stop) do
    Thread.delay 0.05
  done

let drain t =
  if not (Atomic.exchange t.draining true) then begin
    request_stop t;
    (* on the loop thread: stop the readers — relay fibers still in
       flight finish their shard round trips and their replies flush
       through the writer before the loop drains *)
    ignore
      (Aio.post t.sched (fun () ->
           List.iter
             (fun c ->
               try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
               with Unix.Unix_error _ -> ())
             t.conns;
           Option.iter (Aio.cancel_on t.sched) t.probe_fiber));
    List.iter Net.Metrics_http.stop t.scrapes;
    (match t.loop_thread with
    | Some th ->
        Thread.join th;
        t.loop_thread <- None
    | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* the loop has exited, so nothing else touches the upstreams *)
    List.iter (fun (_, u) -> close_upstream u) t.upstreams
  end

let failover_total t = M.counter_value t.m_failovers
let shed_total t = M.counter_value t.m_shed
let epoch t = Membership.epoch t.members
let stale_routes_total t = M.counter_value t.m_stale_routes
let read_repair_total t = M.counter_value t.m_read_repairs
let topology_changes_total t = M.counter_value t.m_topo_changes
