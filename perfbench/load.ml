(* The closed-loop load generator: [conns] connections from this one
   process, each with exactly one request in flight, each sending its
   next request only once the previous reply is in (the way
   [cedarctl submit] and build tools call the service). *)

type result = {
  attempted : int;  (** requests sent, the ramp's included *)
  ok : int;  (** OK replies to requests sent after the ramp *)
  failed : int;
  failures : (int * string) list;  (** (request index, reason), first few *)
  rtts : float array;  (** round trip of each of those [ok], seconds *)
  done_at : float array;  (** and when it completed, seconds after the ramp *)
  cached : int;  (** those of [ok] served from a result cache *)
  served : int;  (** OK replies, the ramp's included *)
  wall : float;  (** end of the ramp to the last counted reply, seconds *)
  next : int;  (** a request index this run never used: where a later run
                   continues the stream *)
}

type stop =
  | Seconds of { ramp : float; measure : float }
      (** run [ramp + measure] seconds; count only replies after the ramp *)
  | Count of int  (** send this many requests, count all *)

let client_cfg port =
  { (Net.Client.default_cfg ~port) with Net.Client.request_timeout_s = 60.0 }

(* what one connection saw *)
type tally = {
  mutable t_attempted : int;
  mutable t_ok : int;
  mutable t_cached : int;
  mutable t_served : int;
  mutable t_samples : (float * float) list;  (** (rtt, done at) *)
  mutable t_failures : (int * string) list;
  mutable t_last : float;
}

(* [keep.(slot)] receives the first reply seen for each slot; a later
   reply for a filled slot must be byte-identical to it.  [cycles.(i)]
   receives request [i]'s [r_cycles] for every [i] it has room for.
   [at = (n, f)] calls [f] once, when the [n]-th counted reply is in.
   The stream starts at request index [first].  Every reply must be
   [R_done] at the [Full] rung. *)
let run ?(at = (0, ignore)) ?(first = 0) ~port ~conns ~stop
    ~(request : int -> Service.Server.request * int)
    ~(keep : Net.Wire.reply option array) ~(cycles : float option array) () =
  let next = Atomic.make first in
  let completed = Atomic.make 0 in
  let at_count, at_hook = at in
  let keep_mx = Mutex.create () in
  let t0_all = Util.now () in
  let t_start, deadline =
    match stop with
    | Seconds { ramp; measure } -> (t0_all +. ramp, t0_all +. ramp +. measure)
    | Count _ -> (t0_all, infinity)
  in
  let worker (t : tally) =
    let fail i why =
      t.t_attempted <- t.t_attempted + 1;
      t.t_failures <- (i, why) :: t.t_failures
    in
    match Net.Client.connect (client_cfg port) with
    | Error msg -> fail (-1) ("connect: " ^ msg)
    | Ok c ->
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          let more =
            match stop with
            | Seconds _ -> Util.now () < deadline
            | Count n -> i < first + n
          in
          if not more then continue := false
          else begin
            let req, slot = request i in
            let t0 = Util.now () in
            let reply =
              Net.Client.submit c ~name:req.Service.Server.req_name
                ~options:req.Service.Server.req_options
                req.Service.Server.req_source
            in
            let t1 = Util.now () in
            let counted = t0 >= t_start in
            if counted then t.t_last <- t1;
            match reply with
            | Error msg -> fail i ("transport: " ^ msg)
            | Ok (Net.Wire.R_done d as r) when d.r_rung = Service.Server.Full ->
                let mismatch =
                  slot >= 0
                  && Mutex.protect keep_mx (fun () ->
                         match keep.(slot) with
                         | None ->
                             keep.(slot) <- Some r;
                             false
                         | Some (Net.Wire.R_done first) -> first.r_text <> d.r_text
                         | Some _ -> false)
                in
                if mismatch then fail i "reply differs from an earlier reply"
                else begin
                  if i < Array.length cycles then cycles.(i) <- d.r_cycles;
                  t.t_attempted <- t.t_attempted + 1;
                  t.t_served <- t.t_served + 1;
                  if counted then begin
                    t.t_ok <- t.t_ok + 1;
                    if Atomic.fetch_and_add completed 1 + 1 = at_count then at_hook ();
                    if d.r_cached then t.t_cached <- t.t_cached + 1;
                    t.t_samples <- (t1 -. t0, t1 -. t_start) :: t.t_samples
                  end
                end
            | Ok (Net.Wire.R_done d) ->
                fail i ("rung " ^ Service.Server.rung_name d.r_rung)
            | Ok (Net.Wire.R_failed m) -> fail i ("failed: " ^ m)
            | Ok Net.Wire.R_timeout -> fail i "timeout"
            | Ok Net.Wire.R_cancelled -> fail i "cancelled"
            | Ok Net.Wire.R_overloaded -> fail i "overloaded"
            | Ok (Net.Wire.R_too_large _) -> fail i "too large"
            | Ok (Net.Wire.R_error m) -> fail i ("protocol error: " ^ m)
          end
        done;
        Net.Client.close c
  in
  let tallies =
    List.init conns (fun _ ->
        {
          t_attempted = 0;
          t_ok = 0;
          t_cached = 0;
          t_served = 0;
          t_samples = [];
          t_failures = [];
          t_last = t_start;
        })
  in
  List.map (Thread.create worker) tallies |> List.iter Thread.join;
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let samples = List.concat_map (fun t -> t.t_samples) tallies in
  let failures = List.concat_map (fun t -> t.t_failures) tallies in
  {
    attempted = sum (fun t -> t.t_attempted);
    ok = sum (fun t -> t.t_ok);
    failed = List.length failures;
    failures = List.filteri (fun k _ -> k < 10) (List.sort compare failures);
    rtts = Array.of_list (List.map fst samples);
    done_at = Array.of_list (List.map snd samples);
    cached = sum (fun t -> t.t_cached);
    served = sum (fun t -> t.t_served);
    wall = List.fold_left (fun acc t -> Float.max acc t.t_last) t_start tallies -. t_start;
    next = Atomic.get next;
  }

(* Several runs as one: counts and walls add up, and each run's
   completion times follow the previous run's wall. *)
let merge rs =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let offsets =
    List.rev (snd (List.fold_left (fun (t, acc) r -> (t +. r.wall, t :: acc)) (0.0, []) rs))
  in
  {
    attempted = sum (fun r -> r.attempted);
    ok = sum (fun r -> r.ok);
    failed = sum (fun r -> r.failed);
    failures = List.filteri (fun k _ -> k < 10) (List.concat_map (fun r -> r.failures) rs);
    rtts = Array.concat (List.map (fun r -> r.rtts) rs);
    done_at =
      Array.concat (List.map2 (fun r t -> Array.map (( +. ) t) r.done_at) rs offsets);
    cached = sum (fun r -> r.cached);
    served = sum (fun r -> r.served);
    wall = List.fold_left (fun acc r -> acc +. r.wall) 0.0 rs;
    next = List.fold_left (fun acc r -> max acc r.next) 0 rs;
  }
