type cfg = {
  host : string;
  port : int;
  connect_timeout_s : float;
  request_timeout_s : float;
  max_attempts : int;
  backoff_s : float;
  backoff_jitter : float;
  backoff_seed : int;
}

let default_cfg ~port =
  {
    host = "127.0.0.1";
    port;
    connect_timeout_s = 5.0;
    request_timeout_s = 120.0;
    max_attempts = 5;
    backoff_s = 0.1;
    backoff_jitter = 0.5;
    backoff_seed = 0x5eed;
  }

(* how a connection waits: a blocking client parks its thread in the
   kernel (poll, SO_RCVTIMEO/SO_SNDTIMEO); a fiber client suspends in
   the Aio loop that owns it.  Everything else — socket setup, retries,
   reply matching — is the same code for both. *)
type io = Blocking | Fiber

type t = {
  cfg : cfg;
  io : io;
  instance : int;  (* decorrelates jitter streams across clients *)
  mutable fd : Unix.file_descr option;
  mutable stream : Wire.Stream.t;  (* replies; fresh per connection *)
  buf : Bytes.t;  (* read scratch *)
  mutable next_id : int;
}

(* ------------------------------------------------------------------ *)
(* Jittered backoff                                                    *)
(* ------------------------------------------------------------------ *)

(* splitmix64 finalizer (same mixer as Service.Fault): one pass is
   enough to turn (seed, instance, attempt) into decorrelated bits *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Deterministic jittered exponential backoff.  The naive doubling
   schedule reconnects every waiting client in lockstep after a server
   restart (thundering herd); spreading each step uniformly over
   [base*2^k*(1-j), base*2^k*(1+j)) breaks the synchrony while keeping
   the same expected delay.  Pure so tests can pin the schedule. *)
let backoff_delay cfg ~instance ~attempt =
  let base = cfg.backoff_s *. (2.0 ** float_of_int (max 0 (attempt - 1))) in
  let j = max 0.0 (min 1.0 cfg.backoff_jitter) in
  if j = 0.0 then base
  else
    let bits =
      mix64
        (Int64.of_int (cfg.backoff_seed lxor (instance * 0x1000003) lxor attempt))
    in
    (* 53 uniform bits -> u in [0, 1) *)
    let u =
      Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.0
    in
    base *. (1.0 -. j +. (2.0 *. j *. u))

let instance_counter = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Connection establishment                                            *)
(* ------------------------------------------------------------------ *)

(* Non-blocking connect + poll: a down host fails within
   [connect_timeout_s] instead of the kernel's minutes-long default. *)
let connect_once io cfg =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let fail msg =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error msg
  in
  match Unix.inet_addr_of_string cfg.host with
  | exception Failure _ -> fail (Printf.sprintf "bad host %S" cfg.host)
  | addr -> (
      let sockaddr = Unix.ADDR_INET (addr, cfg.port) in
      Unix.set_nonblock fd;
      let pending =
        match Unix.connect fd sockaddr with
        | () -> Ok false
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> Ok true
        | exception Unix.Unix_error (e, _, _) ->
            Error (Unix.error_message e)
      in
      match pending with
      | Error msg ->
          fail
            (Printf.sprintf "connect %s:%d: %s" cfg.host cfg.port msg)
      | Ok wait -> (
          let ready =
            (not wait)
            ||
            match io with
            | Blocking -> (
                (* poll, not select: a client in a process already
                   holding hundreds of connections has descriptors past
                   FD_SETSIZE *)
                try Aio.poll_fd fd `Write ~timeout_s:cfg.connect_timeout_s
                with Unix.Unix_error _ -> false)
            | Fiber -> (
                match
                  Aio.wait_writable
                    ~deadline:(Aio.now () +. cfg.connect_timeout_s)
                    fd
                with
                | r -> r = `Ready
                | exception e ->
                    (try Unix.close fd with Unix.Unix_error _ -> ());
                    raise e)
          in
          if not ready then
            fail
              (Printf.sprintf "connect %s:%d: timed out after %.1fs"
                 cfg.host cfg.port cfg.connect_timeout_s)
          else
            match Unix.getsockopt_error fd with
            | Some e ->
                fail
                  (Printf.sprintf "connect %s:%d: %s" cfg.host cfg.port
                     (Unix.error_message e))
            | None ->
                (try Unix.setsockopt fd Unix.TCP_NODELAY true
                 with Unix.Unix_error _ -> ());
                if io = Blocking then begin
                  Unix.clear_nonblock fd;
                  if cfg.request_timeout_s > 0.0 then begin
                    (try
                       Unix.setsockopt_float fd Unix.SO_RCVTIMEO
                         cfg.request_timeout_s
                     with Unix.Unix_error _ -> ());
                    try
                      Unix.setsockopt_float fd Unix.SO_SNDTIMEO
                        cfg.request_timeout_s
                    with Unix.Unix_error _ -> ()
                  end
                end;
                Ok fd))

let connect_with_backoff io ~instance cfg =
  let rec go attempt last_err =
    if attempt > cfg.max_attempts then
      Error
        (Printf.sprintf "giving up after %d attempts: %s" cfg.max_attempts
           last_err)
    else
      match connect_once io cfg with
      | Ok fd -> Ok fd
      | Error msg ->
          if attempt = cfg.max_attempts then
            Error
              (Printf.sprintf "giving up after %d attempts: %s"
                 cfg.max_attempts msg)
          else begin
            let d = backoff_delay cfg ~instance ~attempt in
            (match io with Blocking -> Thread.delay d | Fiber -> Aio.sleep d);
            go (attempt + 1) msg
          end
  in
  go 1 "no attempt made"

let connect_io io cfg =
  let instance = Atomic.fetch_and_add instance_counter 1 in
  match connect_with_backoff io ~instance cfg with
  | Ok fd ->
      Ok
        {
          cfg;
          io;
          instance;
          fd = Some fd;
          stream = Wire.Stream.create ();
          buf = Bytes.create 16384;
          next_id = 1;
        }
  | Error _ as e -> e

let connect cfg = connect_io Blocking cfg
let connect_fiber cfg = connect_io Fiber cfg

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Request/reply                                                       *)
(* ------------------------------------------------------------------ *)

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current_fd t =
  match t.fd with
  | Some fd -> Ok fd
  | None -> (
      match connect_with_backoff t.io ~instance:t.instance t.cfg with
      | Ok fd ->
          t.fd <- Some fd;
          t.stream <- Wire.Stream.create ();
          Ok fd
      | Error _ as e -> e)

let send t ?deadline fd frame =
  match t.io with
  | Blocking -> (
      match Wire.write_raw fd frame with
      | () -> `Sent
      | exception Unix.Unix_error (e, _, _) -> `Closed (Unix.error_message e))
  | Fiber -> (
      let b = Bytes.unsafe_of_string frame in
      match Aio.write_all ?deadline fd b 0 (Bytes.length b) with
      | `Ok ->
          Obs.Metrics.incr ~by:(Bytes.length b) Wire.bytes_written;
          `Sent
      | `Closed -> `Closed "connection closed"
      | `Deadline -> `Deadline)

let rec read t ?deadline fd =
  match t.io with
  | Fiber -> Aio.read ?deadline fd t.buf 0 (Bytes.length t.buf)
  | Blocking -> (
      match Unix.read fd t.buf 0 (Bytes.length t.buf) with
      | 0 -> `Eof
      | n -> `Data n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read t fd
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Deadline (* SO_RCVTIMEO expired *)
      | exception Unix.Unix_error (_, _, _) -> `Eof)

(* One attempt: send the frame, wait for the frame echoing [id] (or an
   unsolicited id-0 reply such as the accept-time Overloaded shed) and
   [accept] it.  [`Retry] means the connection is dead — or the reply
   does not decode — and the request may be resent on a fresh one;
   [`Fatal] means retrying cannot help.  A fiber client bounds the
   whole attempt by one deadline; a blocking one bounds each send and
   read by the socket timeouts. *)
let attempt t fd ~id frame accept =
  let deadline =
    if t.io = Fiber && t.cfg.request_timeout_s > 0.0 then
      Some (Aio.now () +. t.cfg.request_timeout_s)
    else None
  in
  let timed_out () =
    `Fatal
      (Printf.sprintf "request timed out after %.1fs" t.cfg.request_timeout_s)
  in
  let rec await () =
    match Wire.Stream.next_raw t.stream with
    | `Frame reply when Wire.frame_id reply = id || Wire.frame_id reply = 0
      -> (
        match accept reply with
        | Ok v -> `Ok v
        | Error err -> `Retry (Wire.error_to_string err))
    | `Frame _ -> await () (* stale reply from a past id *)
    | `Oversized (_, got) ->
        `Fatal (Printf.sprintf "reply too large: %d bytes" got)
    | `Fail err -> `Retry (Wire.error_to_string err)
    | `Need_more -> (
        match read t ?deadline fd with
        | `Data n ->
            Obs.Metrics.incr ~by:n Wire.bytes_read;
            Wire.Stream.feed t.stream t.buf 0 n;
            await ()
        | `Eof ->
            `Retry
              (if Wire.Stream.midframe t.stream then
                 Wire.error_to_string Wire.Truncated
               else "connection closed by server")
        | `Deadline -> timed_out ())
  in
  match send t ?deadline fd frame with
  | `Closed why -> `Retry (Printf.sprintf "send: %s" why)
  | `Deadline -> timed_out ()
  | `Sent -> await ()

(* one round trip: [frame_of id] is the request stamped with the id *)
let exchange t frame_of accept =
  match current_fd t with
  | Error _ as e -> e
  | Ok fd -> (
      let id = fresh_id t in
      let frame = frame_of id in
      match attempt t fd ~id frame accept with
      | `Ok reply -> Ok reply
      | `Fatal msg -> Error msg
      | `Retry why -> (
          (* reconnect with backoff and resend exactly once: the server
             side is idempotent (content-addressed cache) *)
          close t;
          match current_fd t with
          | Error msg ->
              Error (Printf.sprintf "%s; reconnect failed: %s" why msg)
          | Ok fd -> (
              match attempt t fd ~id frame accept with
              | `Ok reply -> Ok reply
              | `Fatal msg -> Error msg
              | `Retry msg ->
                  close t;
                  Error
                    (Printf.sprintf "%s; after reconnect: %s" why msg))))

let request t msg =
  exchange t (fun id -> Wire.encode ~id msg) (fun r -> Result.map snd (Wire.decode r))

let request_frame t frame = exchange t (Wire.with_id frame) Result.ok

let unexpected what got =
  Error
    (Printf.sprintf "expected %s, got %s frame" what
       (Wire.message_kind_name got))

let ping t =
  let t0 = Unix.gettimeofday () in
  match request t Wire.Ping with
  | Ok Wire.Pong -> Ok (Unix.gettimeofday () -. t0)
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Pong" other
  | Error _ as e -> e

let submit ?(trace = 0) t ~name ~options source =
  let msg =
    Wire.Submit
      {
        Wire.sub_name = name;
        sub_source = source;
        sub_options = options;
        sub_trace = trace;
      }
  in
  match request t msg with
  | Ok (Wire.Result reply) -> Ok reply
  | Ok other -> unexpected "Result" other
  | Error _ as e -> e

(* the JSON views share one reply shape: the document, or a typed error
   (a plain shard has no membership view) *)
let json_view t req =
  match request t req with
  | Ok (Wire.Stats_json s | Wire.Metrics_json s | Wire.Members_json s) -> Ok s
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "a JSON reply" other
  | Error _ as e -> e

let stats_json t = json_view t Wire.Stats_json_req
let metrics_json t = json_view t Wire.Metrics_json_req
let members_json t = json_view t Wire.Members_json_req

let cluster_add t (a : Wire.cluster_add) =
  match request t (Wire.Cluster_add a) with
  | Ok (Wire.Cluster_ack ack) -> Ok ack
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Cluster_ack" other
  | Error _ as e -> e

let cluster_remove t shard_id =
  match request t (Wire.Cluster_remove shard_id) with
  | Ok (Wire.Cluster_ack ack) -> Ok ack
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Cluster_ack" other
  | Error _ as e -> e

let cache_push t (p : Wire.cache_push) =
  match request t (Wire.Cache_push p) with
  | Ok (Wire.Cache_ack admitted) -> Ok admitted
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Cache_ack" other
  | Error _ as e -> e

let shutdown t =
  match request t Wire.Shutdown_req with
  | Ok Wire.Shutdown_ack -> Ok ()
  | Ok (Wire.Result (Wire.R_error m)) -> Error m
  | Ok other -> unexpected "Shutdown_ack" other
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Closed-loop socket driver                                           *)
(* ------------------------------------------------------------------ *)

type drive_cfg = {
  requests : int;
  conns : int;
  seed : int;
  size_jitter : int;
  batch : int;
  validate : bool;
  target : Codegen.Target.t;
}

let default_drive_cfg =
  { requests = 200; conns = 4; seed = 42; size_jitter = 4; batch = 4;
    validate = false; target = Codegen.Target.Cedar }

type drive_summary = {
  d_requests : int;
  d_done : int;
  d_cached : int;
  d_failed : int;
  d_timeout : int;
  d_cancelled : int;
  d_overloaded : int;
  d_too_large : int;
  d_errors : int;
  d_latencies : float array;
  d_wall_s : float;
}

type acc = {
  mutable a_done : int;
  mutable a_cached : int;
  mutable a_failed : int;
  mutable a_timeout : int;
  mutable a_cancelled : int;
  mutable a_overloaded : int;
  mutable a_too_large : int;
  mutable a_errors : int;
  mutable a_latencies : float list;
}

(* [conns] fibers on a private loop on the calling thread, each with
   its own fiber connection, taking request indices from one counter.
   Only the loop thread touches the counter and the accumulator. *)
let drive cfg dcfg =
  let acc =
    {
      a_done = 0;
      a_cached = 0;
      a_failed = 0;
      a_timeout = 0;
      a_cancelled = 0;
      a_overloaded = 0;
      a_too_large = 0;
      a_errors = 0;
      a_latencies = [];
    }
  in
  let next = ref 0 in
  let take () =
    let i = !next in
    incr next;
    if i < dcfg.requests then Some i else None
  in
  let record a reply =
    match reply with
    | Wire.R_done { r_cached; _ } ->
        a.a_done <- a.a_done + 1;
        if r_cached then a.a_cached <- a.a_cached + 1
    | Wire.R_failed _ -> a.a_failed <- a.a_failed + 1
    | Wire.R_timeout -> a.a_timeout <- a.a_timeout + 1
    | Wire.R_cancelled -> a.a_cancelled <- a.a_cancelled + 1
    | Wire.R_overloaded -> a.a_overloaded <- a.a_overloaded + 1
    | Wire.R_too_large _ -> a.a_too_large <- a.a_too_large + 1
    | Wire.R_error _ -> a.a_errors <- a.a_errors + 1
  in
  let worker () =
    match connect_fiber cfg with
    | Error _ ->
        (* count every request this connection would have taken as a
           transport error, so the totals still add up *)
        let rec burn () =
          match take () with
          | Some _ ->
              acc.a_errors <- acc.a_errors + 1;
              burn ()
          | None -> ()
        in
        burn ()
    | Ok client ->
        let rec loop () =
          match take () with
          | None -> ()
          | Some i ->
              let req =
                Service.Traffic.nth_request ~validate:dcfg.validate
                  ~target:dcfg.target ~seed:dcfg.seed
                  ~size_jitter:dcfg.size_jitter ~batch:dcfg.batch i
              in
              let t0 = Unix.gettimeofday () in
              (match
                 submit client ~name:req.Service.Server.req_name
                   ~options:req.Service.Server.req_options
                   req.Service.Server.req_source
               with
              | Ok reply ->
                  acc.a_latencies <-
                    (Unix.gettimeofday () -. t0) :: acc.a_latencies;
                  record acc reply
              | Error _ -> acc.a_errors <- acc.a_errors + 1);
              loop ()
        in
        loop ();
        close client
  in
  let t0 = Unix.gettimeofday () in
  Aio.run (Aio.create ()) (fun () ->
      for _ = 1 to max 1 dcfg.conns do
        ignore (Aio.spawn worker)
      done);
  let wall = Unix.gettimeofday () -. t0 in
  let lat = Array.of_list acc.a_latencies in
  Array.sort compare lat;
  {
    d_requests = dcfg.requests;
    d_done = acc.a_done;
    d_cached = acc.a_cached;
    d_failed = acc.a_failed;
    d_timeout = acc.a_timeout;
    d_cancelled = acc.a_cancelled;
    d_overloaded = acc.a_overloaded;
    d_too_large = acc.a_too_large;
    d_errors = acc.a_errors;
    d_latencies = lat;
    d_wall_s = wall;
  }

let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank =
      int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1
    in
    sorted.(max 0 (min (n - 1) rank))

let drive_summary_to_string s =
  let thr =
    if s.d_wall_s > 0.0 then
      float_of_int (Array.length s.d_latencies) /. s.d_wall_s
    else 0.0
  in
  Printf.sprintf
    "requests=%d done=%d (cached=%d) failed=%d timeout=%d cancelled=%d \
     overloaded=%d too_large=%d transport_errors=%d | wall=%.2fs \
     %.1f req/s | rtt p50=%.1fms p95=%.1fms p99=%.1fms"
    s.d_requests s.d_done s.d_cached s.d_failed s.d_timeout s.d_cancelled
    s.d_overloaded s.d_too_large s.d_errors s.d_wall_s thr
    (1e3 *. percentile 50.0 s.d_latencies)
    (1e3 *. percentile 95.0 s.d_latencies)
    (1e3 *. percentile 99.0 s.d_latencies)
