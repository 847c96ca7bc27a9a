module M = Obs.Metrics

type state = Up | Suspect | Down

let state_name = function Up -> "up" | Suspect -> "suspect" | Down -> "down"

type shard = { sh_id : string; sh_host : string; sh_port : int }

let valid_id id =
  id <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       id

(* "id=host:port"; the port is everything after the last colon *)
let parse_shard spec =
  let bad () = Error (Printf.sprintf "%S: expected id=host:port" spec) in
  match String.index_opt spec '=' with
  | None -> bad ()
  | Some eq -> (
      let id = String.sub spec 0 eq in
      let addr = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      match String.rindex_opt addr ':' with
      | None -> bad ()
      | Some colon -> (
          let host = String.sub addr 0 colon in
          match
            int_of_string_opt
              (String.sub addr (colon + 1) (String.length addr - colon - 1))
          with
          | Some port when host <> "" && port > 0 ->
              if valid_id id then Ok { sh_id = id; sh_host = host; sh_port = port }
              else
                Error
                  (Printf.sprintf "%S: shard id must be [A-Za-z0-9_.-]+" spec)
          | _ -> bad ()))

let parse_spec spec =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
        match parse_shard (String.trim part) with
        | Ok shard -> go (shard :: acc) rest
        | Error _ as e -> e)
  in
  go [] (String.split_on_char ',' spec)

type tracked = {
  shard : shard;
  mutable st : state;
  mutable fails : int;  (* consecutive *)
}

type t = {
  vnodes : int;
  probe_s : float;
  down_after : int;
  timeout_s : float;
  seed : int;
  probe_loss : float;  (* injected probe-failure rate (tests) *)
  mutex : Mutex.t;
  mutable tracked : tracked list;
  mutable full_ring : Ring.t;  (* all current members: the all-down fallback *)
  mutable live_ring : Ring.t;
  mutable epoch : int;  (* bumps whenever routable membership changes *)
  mutable draws : int;  (* probe-loss draw counter; the prober's own *)
  metrics : M.t;
  m_transitions : M.counter;
  m_down : M.gauge;
  m_epoch : M.gauge;
}

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* splitmix64 finalizer, same family as Service.Fault and Net.Client *)
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

let unit_float seed n =
  let bits = mix64 (Int64.of_int ((seed * 0x3779fb9) lxor n)) in
  Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992.0

(* must hold the lock.  The epoch advances iff the set of routable
   shards actually changed — a Suspect⇄Up oscillation leaves the ring
   alone and must not churn the epoch, while a Down transition, a
   resurrection, or an add/remove moves ownership and does. *)
let rebuild_ring t =
  let live =
    List.filter_map
      (fun tr -> if tr.st <> Down then Some tr.shard.sh_id else None)
      t.tracked
  in
  let next =
    if live = [] then t.full_ring else Ring.make ~vnodes:t.vnodes live
  in
  if Ring.members next <> Ring.members t.live_ring then begin
    t.epoch <- t.epoch + 1;
    M.set_gauge t.m_epoch (float_of_int t.epoch)
  end;
  t.live_ring <- next;
  M.set_gauge t.m_down
    (float_of_int
       (List.fold_left
          (fun n tr -> if tr.st = Down then n + 1 else n)
          0 t.tracked))

let apply_success t tr =
  with_lock t (fun () ->
      tr.fails <- 0;
      if tr.st <> Up then begin
        tr.st <- Up;
        M.incr t.m_transitions;
        rebuild_ring t
      end)

let apply_failure t tr =
  with_lock t (fun () ->
      tr.fails <- tr.fails + 1;
      let next = if tr.fails >= t.down_after then Down else Suspect in
      if tr.st <> next then begin
        tr.st <- next;
        M.incr t.m_transitions;
        if next = Down then rebuild_ring t
      end)

let find t id =
  with_lock t (fun () ->
      List.find_opt (fun tr -> tr.shard.sh_id = id) t.tracked)

let note_failure t id =
  match find t id with None -> () | Some tr -> apply_failure t tr

let note_success t id =
  match find t id with None -> () | Some tr -> apply_success t tr

(* One-shot ping: a single connection attempt with tight timeouts — the
   probe must never stall the loop's other fibers behind a dead host.
   [probe_loss] deterministically swallows a fraction of probes (seeded,
   distinct stream from the period jitter) so tests can flap a healthy
   shard without touching the network. *)
let probe_shard t tr =
  let lost =
    t.probe_loss > 0.0
    &&
    (t.draws <- t.draws + 1;
     unit_float (t.seed lxor 0x10c4e55) t.draws < t.probe_loss)
  in
  if lost then apply_failure t tr
  else
    let cfg =
      {
        (Net.Client.default_cfg ~port:tr.shard.sh_port) with
        Net.Client.host = tr.shard.sh_host;
        connect_timeout_s = t.timeout_s;
        request_timeout_s = t.timeout_s;
        max_attempts = 1;
      }
    in
    match Net.Client.connect_fiber cfg with
    | Error _ -> apply_failure t tr
    | Ok c -> (
        match
          Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () ->
              Net.Client.ping c)
        with
        | Ok _ -> apply_success t tr
        | Error _ -> apply_failure t tr)

let probe_once t =
  let snapshot = with_lock t (fun () -> t.tracked) in
  List.iter (fun tr -> probe_shard t tr) snapshot

let probe_loop t =
  let rec go tick =
    probe_once t;
    (* jitter the period ±50% so a proxy fleet never probes in phase *)
    Aio.sleep (t.probe_s *. (0.5 +. unit_float t.seed tick));
    go (tick + 1)
  in
  go 1

let create ?(vnodes = 64) ?(probe_ms = 500.0) ?(down_after = 2)
    ?(timeout_s = 1.0) ?(seed = 0x5eed) ?(probe_loss = 0.0) shards =
  let ids = List.map (fun s -> s.sh_id) shards in
  let full_ring = Ring.make ~vnodes ids in
  let metrics = M.create () in
  let m_epoch =
    M.gauge metrics ~help:"current ring epoch" "cluster_ring_epoch"
  in
  M.set_gauge m_epoch 1.0;
  {
    vnodes;
    probe_s = Float.max 0.01 (probe_ms /. 1000.0);
    down_after = max 1 down_after;
    timeout_s;
    seed;
    probe_loss;
    mutex = Mutex.create ();
    tracked = List.map (fun shard -> { shard; st = Up; fails = 0 }) shards;
    full_ring;
    live_ring = full_ring;
    epoch = 1;
    draws = 0;
    metrics;
    m_transitions =
      M.counter metrics ~help:"membership state transitions"
        "cluster_member_transitions_total";
    m_down =
      M.gauge metrics ~help:"shards currently marked down"
        "cluster_members_down";
    m_epoch;
  }

let metrics t = t.metrics

let ring t = with_lock t (fun () -> t.live_ring)
let epoch t = with_lock t (fun () -> t.epoch)
let ring_epoch t = with_lock t (fun () -> (t.live_ring, t.epoch))
let vnodes t = t.vnodes

(* Dynamic membership: the member set itself is mutable.  Both the full
   (fallback) ring and the live ring are rebuilt; a change that alters
   routable membership bumps the epoch via [rebuild_ring]. *)
let add_shard t shard =
  with_lock t (fun () ->
      if List.exists (fun tr -> tr.shard.sh_id = shard.sh_id) t.tracked then
        Error (Printf.sprintf "shard %S is already a member" shard.sh_id)
      else begin
        t.tracked <- t.tracked @ [ { shard; st = Up; fails = 0 } ];
        t.full_ring <-
          Ring.make ~vnodes:t.vnodes
            (List.map (fun tr -> tr.shard.sh_id) t.tracked);
        rebuild_ring t;
        Ok t.epoch
      end)

let remove_shard t id =
  with_lock t (fun () ->
      if not (List.exists (fun tr -> tr.shard.sh_id = id) t.tracked) then
        Error (Printf.sprintf "shard %S is not a member" id)
      else if List.length t.tracked <= 1 then
        Error "refusing to remove the last member"
      else begin
        t.tracked <- List.filter (fun tr -> tr.shard.sh_id <> id) t.tracked;
        t.full_ring <-
          Ring.make ~vnodes:t.vnodes
            (List.map (fun tr -> tr.shard.sh_id) t.tracked);
        rebuild_ring t;
        Ok t.epoch
      end)

let snapshot t =
  with_lock t (fun () ->
      List.map (fun tr -> (tr.shard, tr.st, tr.fails)) t.tracked)

let members_json t =
  let module J = Obs.Json in
  with_lock t (fun () ->
      J.Obj
        [
          ("epoch", J.Int t.epoch);
          ("vnodes", J.Int t.vnodes);
          ( "shards",
            J.List
              (List.map
                 (fun tr ->
                   J.Obj
                     [
                       ("id", J.String tr.shard.sh_id);
                       ("host", J.String tr.shard.sh_host);
                       ("port", J.Int tr.shard.sh_port);
                       ("state", J.String (state_name tr.st));
                       ("fails", J.Int tr.fails);
                     ])
                 t.tracked) );
        ])
