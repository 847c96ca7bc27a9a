(* cedarnet TCP front-end.  See server.mli for the contract.

   Fiber structure (one Aio scheduler on one event-loop thread, replacing
   the former thread-per-connection design):

   - one accept fiber owning the listening socket;
   - per connection, three fibers replacing the old reader+responder
     thread pair: a reader (decodes frames off the non-blocking socket
     through Wire.Stream and admits submits without waiting on earlier
     replies — pipelining), a responder (awaits each admitted ticket in
     order and enqueues the replies), and a writer (the single point
     that touches the socket for output, so partial non-blocking writes
     from different producers can never interleave).  Control replies
     (Pong, stats, ...) and shed verdicts go straight from the reader to
     the writer's queue, exactly as the old reader wrote them directly.

   CPU-bound restructure work still runs on the Service.Server domain
   pool; the seam is the completion-queue bridge: the reader registers
   Service.Server.on_resolve -> Aio.fulfil on the ticket, the responder
   suspends in Aio.await, and the worker domain's resolution posts the
   wakeup through the scheduler's completion queue.  No OS thread ever
   parks per request.

   Read deadlines are event-loop timers now, not SO_RCVTIMEO (which is
   meaningless on a non-blocking descriptor): a connection with no
   partial frame buffered carries no deadline at all — ten thousand
   idle connections cost three suspended fibers and a poll slot each —
   while the moment the first byte of a frame arrives, the reader arms
   one absolute deadline for the whole frame, which is what finally
   defeats the 1-byte-per-second slow-loris sender the old per-read
   socket timeout never caught.

   Budget accounting: [inflight] counts submits admitted into the
   service and not yet replied to, across all connections, reserved
   against the budget (excess submits shed with R_overloaded, never
   queued); the high-water mark proves the bound held.  Only loop
   fibers touch the two, so they are plain ints; the counters are
   instruments in the service's registry. *)

module M = Obs.Metrics
module Fault = Service.Fault

type cfg = {
  host : string;
  port : int;
  max_conns : int;
  max_inflight : int;
  max_source_bytes : int;
  read_timeout_s : float;
  write_timeout_s : float;
}

let default_cfg =
  {
    host = "127.0.0.1";
    port = 0;
    max_conns = 64;
    max_inflight = 256;
    max_source_bytes = 8 * 1024 * 1024;
    read_timeout_s = 30.0;
    write_timeout_s = 30.0;
  }

(* a topology change pushed down from the cluster proxy; the handler
   (wired by cedard when it runs as a shard) returns the verdict and the
   epoch-like generation the change produced *)
type cluster_change = [ `Add of string * string * int | `Remove of string ]

type pending = {
  pd_id : int;  (* request id to echo *)
  pd_outcome : Service.Server.outcome Aio.promise;
  pd_trace : int;
  pd_start : float;
}

(* what the writer fiber is asked to put on the wire *)
type out_item =
  | O_frame of string  (* a complete encoded frame *)
  | O_kill of string
      (* chaos: write these raw bytes (possibly a truncated or garbage
         frame), then drop the connection *)

type conn = {
  c_fd : Unix.file_descr;
  c_pending : pending Aio.Mailbox.mb;
  c_out : out_item Aio.Mailbox.mb;
  mutable c_dead : bool;  (* stop writing: write fault or IO error *)
  mutable c_alive : int;  (* reader + responder + writer still running *)
}

type t = {
  svc : Service.Server.t;
  cfg : cfg;
  fault : Fault.t;
  on_cluster_change : (cluster_change -> bool * int * string) option;
  listen_fd : Unix.file_descr;
  bound_port : int;
  sched : Aio.t;
  stop : bool Atomic.t;
  draining : bool Atomic.t;
  mutable inflight : int;  (* loop fibers only *)
  mutable inflight_hw : int;
  m_conns_total : M.counter;
  m_conns_active : M.gauge;
  m_requests : M.counter;
  m_shed : M.counter;
  m_too_large : M.counter;
  m_bad_frames : M.counter;
  m_inflight : M.gauge;
  m_request_seconds : M.histogram;
  m_flushes : M.counter;
  m_flushed_frames : M.counter;
  scratch : Bytes.t;
      (* shared read buffer: fibers never suspend between reading into
         it and feeding the stream, so one buffer serves every
         connection — per-conn memory stays flat *)
  mutable conns : conn list;  (* loop thread only *)
  mutable accept_fiber : Aio.fiber option;
  mutable loop_thread : Thread.t option;
  mutable scrapes : Metrics_http.t list;  (* stopped at drain *)
}

let now () = Unix.gettimeofday ()

(* the metrics page: the service's registries (this server's counters
   among them), the wire's injector if it is another, and the global *)
let page t =
  Service.Server.registries t.svc @ [ Fault.metrics t.fault; M.global ]

(* ------------------------------------------------------------------ *)
(* Writing (a single writer fiber per connection, so the chaos write
   faults cover every reply and partial writes never interleave)       *)
(* ------------------------------------------------------------------ *)

let kill_conn conn =
  conn.c_dead <- true;
  try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let send t conn ~id msg =
  if not conn.c_dead then
    if Fault.fire t.fault Fault.Trunc_write then begin
      (* cut the frame in half and drop the connection: the client must
         fail typed (Truncated/Eof), never hang or crash *)
      let s = Wire.encode ~id msg in
      ignore
        (Aio.Mailbox.put conn.c_out
           (O_kill (String.sub s 0 (String.length s / 2))))
    end
    else if Fault.fire t.fault Fault.Garbage_frame then
      ignore
        (Aio.Mailbox.put conn.c_out
           (O_kill (String.make Wire.header_bytes '\xa5')))
    else ignore (Aio.Mailbox.put conn.c_out (O_frame (Wire.encode ~id msg)))

(* forward-declared so the three connection fibers can share it *)
let conn_finished t conn =
  conn.c_alive <- conn.c_alive - 1;
  if conn.c_alive = 0 then begin
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    M.add_gauge t.m_conns_active (-1.0);
    t.conns <- List.filter (fun c -> not (c == conn)) t.conns
  end

(* cap on one corked batch: a pipelined burst of multi-MB results still
   flushes in bounded contiguous memory *)
let max_batch_bytes = 256 * 1024

(* The writer corks: a blocking take yields the first item, then
   everything already queued behind it in the same scheduler pass is
   drained with [take_opt] and the whole batch goes out in ONE write —
   N pipelined replies cost one syscall, not N.  A chaos [O_kill] ends
   the batch: the frames queued before it flush (in order, in the same
   write), its raw bytes go last, and the connection drops. *)
let writer t conn =
  let rec loop () =
    match Aio.Mailbox.take conn.c_out with
    | None -> ()
    | Some first ->
        if conn.c_dead then loop ()
        else begin
          let kill = ref None in
          let frames = ref [] and bytes = ref 0 in
          let add s =
            frames := s :: !frames;
            bytes := !bytes + String.length s
          in
          (match first with O_frame s -> add s | O_kill s -> kill := Some s);
          let rec drain () =
            if !kill = None && !bytes < max_batch_bytes then
              match Aio.Mailbox.take_opt conn.c_out with
              | None -> ()
              | Some (O_frame s) ->
                  add s;
                  drain ()
              | Some (O_kill s) -> kill := Some s
          in
          drain ();
          let frames = List.rev !frames in
          let payload =
            match (frames, !kill) with
            | [ s ], None -> Bytes.unsafe_of_string s (* sound: write-only *)
            | fs, k ->
                let tail =
                  match k with Some s -> String.length s | None -> 0
                in
                let b = Bytes.create (!bytes + tail) in
                let off =
                  List.fold_left
                    (fun off s ->
                      Bytes.blit_string s 0 b off (String.length s);
                      off + String.length s)
                    0 fs
                in
                (match k with
                | Some s -> Bytes.blit_string s 0 b off (String.length s)
                | None -> ());
                b
          in
          let deadline =
            if t.cfg.write_timeout_s > 0.0 then
              Some (Aio.now () +. t.cfg.write_timeout_s)
            else None
          in
          (* counted before the write so a client that has read the
             whole batch is guaranteed to observe the flush *)
          M.incr t.m_flushes;
          M.incr ~by:(List.length frames) t.m_flushed_frames;
          (match
             Aio.write_all ?deadline conn.c_fd payload 0 (Bytes.length payload)
           with
          | `Ok -> M.incr ~by:(Bytes.length payload) Wire.bytes_written
          | `Deadline | `Closed -> kill_conn conn);
          (match !kill with Some _ -> kill_conn conn | None -> ());
          loop ()
        end
  in
  loop ();
  conn_finished t conn

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let reply_of_outcome trace (outcome : Service.Server.outcome) =
  match outcome with
  | Service.Server.Done { payload; cached } ->
      Wire.R_done
        {
          r_cached = cached;
          r_rung = payload.Service.Server.p_rung;
          r_text = payload.Service.Server.p_text;
          r_cycles = payload.Service.Server.p_cycles;
          r_global_words = payload.Service.Server.p_global_words;
          r_notes = List.map Wire.note_of_report payload.Service.Server.p_reports;
          r_trace = trace;
        }
  | Service.Server.Failed msg -> Wire.R_failed msg
  | Service.Server.Timeout -> Wire.R_timeout
  | Service.Server.Cancelled -> Wire.R_cancelled

let shed_request t conn ~id =
  M.incr t.m_shed;
  send t conn ~id (Wire.Result Wire.R_overloaded)

(* admission against the in-flight budget *)
let try_reserve t =
  if t.inflight >= t.cfg.max_inflight then false
  else begin
    t.inflight <- t.inflight + 1;
    t.inflight_hw <- max t.inflight_hw t.inflight;
    M.set_gauge t.m_inflight (float_of_int t.inflight);
    true
  end

let release t =
  t.inflight <- t.inflight - 1;
  M.set_gauge t.m_inflight (float_of_int t.inflight)

let admit_submit t conn ~id ?key (s : Wire.submit) =
  let got = String.length s.Wire.sub_source in
  if t.cfg.max_source_bytes > 0 && got > t.cfg.max_source_bytes then begin
    (* request hygiene: typed rejection before the source reaches a
       parser — and before it reaches the service at all *)
    M.incr t.m_too_large;
    send t conn ~id
      (Wire.Result (Wire.R_too_large { limit = t.cfg.max_source_bytes; got }))
  end
  else if not (try_reserve t) then shed_request t conn ~id
  else begin
    let trace =
      if s.Wire.sub_trace <> 0 then s.Wire.sub_trace
      else if Obs.Trace.enabled () then Obs.Trace.fresh_trace_id ()
      else 0
    in
    let request =
      {
        Service.Server.req_name = s.Wire.sub_name;
        req_source = s.Wire.sub_source;
        req_options = s.Wire.sub_options;
      }
    in
    match Service.Server.try_submit ~trace ?key t.svc request with
    | None ->
        (* the service queue itself had no room: shed, don't block *)
        release t;
        shed_request t conn ~id
    | Some ticket ->
        (* the completion-queue bridge: the worker domain that resolves
           the ticket fulfils the promise, which posts the responder's
           wakeup into the scheduler.  A cache hit is resolved already,
           so the promise is fulfilled here, on the loop. *)
        let outcome = Aio.promise () in
        Service.Server.on_resolve ticket (Aio.fulfil outcome);
        ignore
          (Aio.Mailbox.put conn.c_pending
             { pd_id = id; pd_outcome = outcome; pd_trace = trace;
               pd_start = now () })
  end

(* a topology change pushed down from the proxy: a shard that
   replicates re-aims its successor pushes at the new ring *)
let cluster_change t conn ~id change =
  let ack_ok, ack_epoch, ack_msg =
    match t.on_cluster_change with
    | Some f -> f change
    | None -> (false, 0, "shard runs without a cluster view")
  in
  send t conn ~id (Wire.Cluster_ack { ack_ok; ack_epoch; ack_msg })

let dispatch t conn ~id ?key msg =
  match msg with
  | Wire.Ping ->
      send t conn ~id Wire.Pong;
      `Continue
  | Wire.Submit s ->
      M.incr t.m_requests;
      admit_submit t conn ~id ?key s;
      `Continue
  | Wire.Stats_json_req ->
      send t conn ~id
        (Wire.Stats_json
           (Obs.Json.to_string
              (Service.Stats.to_json (Service.Server.stats t.svc))));
      `Continue
  | Wire.Metrics_json_req ->
      send t conn ~id
        (Wire.Metrics_json (Obs.Json.to_string (M.to_json (page t))));
      `Continue
  | Wire.Cache_push p ->
      (* warm-cache replication from a ring peer: verify + admit, then
         ack with the verdict.  The payload is rebuilt exactly as the
         origin's cache held it; fields that never crossed the wire come
         back empty, same as the reply path. *)
      let payload =
        {
          Service.Server.p_name = p.Wire.cp_name;
          p_text = p.Wire.cp_text;
          p_reports = List.map Wire.report_of_note p.Wire.cp_notes;
          p_cycles = p.Wire.cp_cycles;
          p_global_words = p.Wire.cp_global_words;
          p_rung = Service.Server.Full;
        }
      in
      let admitted =
        Service.Server.admit_replica t.svc ~key:p.Wire.cp_key
          ~digest:p.Wire.cp_digest payload
      in
      send t conn ~id (Wire.Cache_ack admitted);
      `Continue
  | Wire.Members_json_req ->
      (* membership lives in the proxy; a plain shard has no view *)
      send t conn ~id
        (Wire.Result (Wire.R_error "not a cluster proxy: no membership view"));
      `Continue
  | Wire.Cluster_add a ->
      cluster_change t conn ~id
        (`Add (a.Wire.ca_id, a.Wire.ca_host, a.Wire.ca_port));
      `Continue
  | Wire.Cluster_remove sid ->
      cluster_change t conn ~id (`Remove sid);
      `Continue
  | Wire.Shutdown_req ->
      send t conn ~id Wire.Shutdown_ack;
      Atomic.set t.stop true;
      (* wake the accept fiber so the stop is noticed immediately *)
      (match t.accept_fiber with Some f -> Aio.cancel f | None -> ());
      `Close
  | Wire.Pong | Wire.Result _ | Wire.Shutdown_ack | Wire.Cache_ack _
  | Wire.Stats_json _ | Wire.Metrics_json _ | Wire.Cluster_ack _
  | Wire.Members_json _ ->
      send t conn ~id
        (Wire.Result
           (Wire.R_error
              (Printf.sprintf "unexpected %s frame from a client"
                 (Wire.message_kind_name msg))));
      `Close

(* ------------------------------------------------------------------ *)
(* Connection fibers                                                   *)
(* ------------------------------------------------------------------ *)

(* One absolute deadline per frame, armed when its first byte arrives
   and dropped when the frame completes: idle connections carry no
   timer at all, and a sender trickling a header one byte a second runs
   out of road [timeout_s] after it started. *)
let read_frames ?(stall = ignore) ~timeout_s ~alive fd stream scratch handle =
  let deadline = ref None in
  let rec loop () =
    if not (alive ()) then `Stopped
    else begin
      let ev = Wire.Stream.next_raw stream in
      if not (Wire.Stream.midframe stream) then deadline := None
      else if !deadline = None && timeout_s > 0.0 then
        deadline := Some (Aio.now () +. timeout_s);
      match ev with
      | `Need_more -> (
          stall ();
          match
            Aio.read ?deadline:!deadline fd scratch 0 (Bytes.length scratch)
          with
          | `Data n ->
              M.incr ~by:n Wire.bytes_read;
              Wire.Stream.feed stream scratch 0 n;
              loop ()
          | (`Eof | `Deadline) as over -> over)
      | (`Frame _ | `Oversized _ | `Fail _) as ev ->
          if handle ev then loop () else `Stopped
    end
  in
  loop ()

let reader t conn =
  let cap =
    if t.cfg.max_source_bytes > 0 then t.cfg.max_source_bytes + 4096
    else Wire.hard_max_payload
  in
  (* a frame that does not decode leaves the stream position
     unknowable; answer typed and drop the connection *)
  let bad_frame err =
    M.incr t.m_bad_frames;
    send t conn ~id:0 (Wire.Result (Wire.R_error (Wire.error_to_string err)));
    false
  in
  let handle = function
    | `Frame frame -> (
        (* a Submit's content address comes from its bytes, once *)
        let key =
          match Wire.submit_key frame with Some (Ok k) -> Some k | _ -> None
        in
        match Wire.decode frame with
        | Error err -> bad_frame err
        | Ok (id, msg) -> dispatch t conn ~id ?key msg = `Continue)
    | `Oversized (id, got) ->
        (* drained in constant memory: reject typed, keep the stream *)
        M.incr t.m_requests;
        M.incr t.m_too_large;
        send t conn ~id (Wire.Result (Wire.R_too_large { limit = cap; got }));
        true
    | `Fail err -> bad_frame err
  in
  let stall () =
    if Fault.fire t.fault Fault.Read_stall then Aio.sleep (Fault.delay_s t.fault)
  in
  (try
     match
       read_frames ~stall ~timeout_s:t.cfg.read_timeout_s
         ~alive:(fun () -> not (conn.c_dead || Atomic.get t.draining))
         conn.c_fd
         (Wire.Stream.create ~max_payload:cap ())
         t.scratch handle
     with
     | `Deadline -> kill_conn conn (* a stalled sender *)
     | `Eof | `Stopped -> ()
   with _ -> ());
  (* no more requests will be admitted: the responder finishes the
     pending replies, then the writer flushes and the last fiber out
     closes the socket *)
  Aio.Mailbox.close conn.c_pending;
  conn_finished t conn

let responder t conn =
  let rec loop () =
    match Aio.Mailbox.take conn.c_pending with
    | None -> ()
    | Some p ->
        let outcome =
          match Aio.await p.pd_outcome with
          | `Value o -> o
          | `Deadline -> assert false (* no deadline on ticket waits *)
        in
        let reply = reply_of_outcome p.pd_trace outcome in
        send t conn ~id:p.pd_id (Wire.Result reply);
        release t;
        M.observe t.m_request_seconds (now () -. p.pd_start);
        if p.pd_trace <> 0 then
          Obs.Trace.with_trace_id p.pd_trace (fun () ->
              Obs.Trace.completed ~start_s:p.pd_start ~stop_s:(now ())
                ~attrs:[ ("request_id", string_of_int p.pd_id) ]
                "net_request");
        loop ()
  in
  (try loop () with _ -> ());
  Aio.Mailbox.close conn.c_out;
  conn_finished t conn

(* ------------------------------------------------------------------ *)
(* Accept fiber                                                        *)
(* ------------------------------------------------------------------ *)

(* Connection budget exhausted: one explicit Overloaded frame, then the
   door closes — nothing queues.  A small fiber writes the verdict so a
   slow receiver cannot stall the accept loop. *)
let refuse fd =
  Unix.set_nonblock fd;
  ignore
    (Aio.spawn (fun () ->
         let b =
           Bytes.unsafe_of_string
             (Wire.encode ~id:0 (Wire.Result Wire.R_overloaded))
         in
         ignore
           (Aio.write_all ~deadline:(Aio.now () +. 5.0) fd b 0 (Bytes.length b));
         try Unix.close fd with Unix.Unix_error _ -> ()))

let handle_accept t fd =
  if Atomic.get t.stop then (
    try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    M.incr t.m_conns_total;
    if Fault.fire t.fault Fault.Accept_drop then (
      try Unix.close fd with Unix.Unix_error _ -> ())
    else if List.length t.conns >= t.cfg.max_conns then begin
      M.incr t.m_shed;
      refuse fd
    end
    else begin
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let conn =
        {
          c_fd = fd;
          c_pending = Aio.Mailbox.create ~capacity:(t.cfg.max_inflight + 4) ();
          c_out = Aio.Mailbox.create ();
          c_dead = false;
          c_alive = 3;
        }
      in
      t.conns <- conn :: t.conns;
      M.add_gauge t.m_conns_active 1.0;
      ignore (Aio.spawn (fun () -> writer t conn));
      ignore (Aio.spawn (fun () -> responder t conn));
      ignore (Aio.spawn (fun () -> reader t conn))
    end
  end

(* every way out of the accept loop — stop, an accept error,
   cancellation — stops the server *)
let accept_loop t =
  Aio.accept_each ~stop:t.stop t.listen_fd (handle_accept t);
  Atomic.set t.stop true

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(fault = Fault.none) ?on_cluster_change cfg svc =
  (* a peer that disappears mid-write must surface as EPIPE, not kill
     the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, bound_port =
    Aio.listen ~host:cfg.host ~port:cfg.port ~backlog:256
  in
  let reg = Service.Server.metrics svc in
  let counter name help = M.counter reg ~help name in
  let t =
    {
      svc;
      cfg;
      fault;
      on_cluster_change;
      listen_fd;
      bound_port;
      sched = Aio.create ();
      stop = Atomic.make false;
      draining = Atomic.make false;
      inflight = 0;
      inflight_hw = 0;
      m_conns_total = counter "net_connections_total" "connections accepted";
      m_conns_active =
        M.gauge reg ~help:"connections currently served"
          "net_connections_active";
      m_requests = counter "net_requests_total" "wire requests received";
      m_shed =
        counter "net_shed_total"
          "requests and connections answered Overloaded (load shed)";
      m_too_large =
        counter "net_too_large_total" "submits rejected by the source-size cap";
      m_bad_frames =
        counter "net_frames_bad_total" "frames that failed to decode";
      m_inflight =
        M.gauge reg ~help:"submits admitted and not yet replied to"
          "net_requests_inflight";
      m_request_seconds =
        M.histogram reg ~help:"wire request latency, admit to reply written"
          "net_request_seconds";
      m_flushes =
        counter "net_flushes_total"
          "batched socket flushes (one write per batch)";
      m_flushed_frames =
        counter "net_flushed_frames_total"
          "reply frames coalesced into batched flushes";
      scratch = Bytes.create 65536;
      conns = [];
      accept_fiber = None;
      loop_thread = None;
      scrapes = [];
    }
  in
  t.loop_thread <-
    Some
      (Thread.create
         (fun () ->
           Aio.run t.sched (fun () ->
               t.accept_fiber <- Some (Aio.self ());
               accept_loop t))
         ());
  t

let port t = t.bound_port
let loop t = t.sched

let attach_metrics t ~port =
  let ep =
    Metrics_http.start ~host:t.cfg.host ~port t.sched (fun () -> M.dump (page t))
  in
  t.scrapes <- ep :: t.scrapes;
  ep

let request_stop t =
  Atomic.set t.stop true;
  (* wake the accept fiber; posting is safe from any thread and a no-op
     once the loop has already finished *)
  ignore
    (Aio.post t.sched (fun () ->
         match t.accept_fiber with
         | Some f -> Aio.cancel_on t.sched f
         | None -> ()))

let wait_stop t =
  while not (Atomic.get t.stop) do
    Thread.delay 0.05
  done

let drain t =
  if not (Atomic.exchange t.draining true) then begin
    request_stop t;
    (* on the loop thread (so it cannot race handle_accept): stop the
       readers — no new requests — but keep the writers, so in-flight
       requests finish and their replies flush before the loop drains *)
    ignore
      (Aio.post t.sched (fun () ->
           List.iter
             (fun c ->
               try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
               with Unix.Unix_error _ -> ())
             t.conns));
    List.iter Metrics_http.stop t.scrapes;
    (match t.loop_thread with
    | Some th ->
        Thread.join th;
        t.loop_thread <- None
    | None -> ());
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let connections_seen t = M.counter_value t.m_conns_total
let inflight_high_water t = t.inflight_hw
let shed_total t = M.counter_value t.m_shed
