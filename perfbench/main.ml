(* perfbench: the benchmark of record.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Spawns the servers the workload names as their own processes, sets
   them up (timed, several times), drives one closed-loop timed window
   from this process over 2 connections, checks the shape of the window
   and every distinct reply (Oracle), and prints every metric by name
   with its unit.  The last stdout line is the JSON result; with
   --trace 0 it carries the end-to-end metrics, with --trace 1 the
   per-layer ones.  Exit 1 when an output or the window's shape is
   wrong. *)

let conns = 2
let setup_reps = 7

(* load before the timed window starts, on the same connections and
   stream, so the window sees a server past its cold start (heap growth,
   first faults) *)
let ramp_s = 1.0

(* The timed window is measured as [slices] slices of [seconds / slices]
   each.  A slice in which the hypervisor stole more than [max_steal] of
   the benchmark's CPUs' time measured the host, not the program: the
   run then adds slices, continuing the request stream, up to
   [max_slices] in all, and reports the [slices] slices with the least
   steal.  Steal bursts on a shared VM last 10-30 s; calm slices see
   under 1%. *)
let slices = 3
let max_slices = 6
let max_steal = 0.05

(* est_speedup_geomean covers the first this-many timed requests: enough
   that the seed's draw of programs moves it by about 2% *)
let speedup_requests = 2048

let ratio a b = if b > 0.0 then a /. b else 0.0

type cluster = {
  procs : Procs.t list;  (** every server process *)
  shards : Procs.t list;  (** the cedard processes *)
  entry : Procs.t;  (** the one the load connects to *)
}

let control port f =
  match Net.Client.connect (Load.client_cfg port) with
  | Error m -> failwith (Printf.sprintf "control connection to :%d: %s" port m)
  | Ok c -> Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () -> f c)

let ok_or what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

let spawn (w : Wl.t) =
  match w.kind with
  | Wl.Corpus_shared | Wl.Corpus_novel ->
      let d = Procs.cedard ~label:"cedard" () in
      { procs = [ d ]; shards = [ d ]; entry = d }
  | Wl.Hot_proxy ->
      let s1 = Procs.cedard ~label:"s1" () in
      let s2 = Procs.cedard ~label:"s2" () in
      let p = Procs.cedarproxy ~label:"proxy" [ s1; s2 ] in
      { procs = [ s1; s2; p ]; shards = [ s1; s2 ]; entry = p }

(* Spawn, wait until every server answers Ping, then warm: the memo on
   corpus-*, the shard caches (through the proxy) on hot-proxy. *)
let setup (w : Wl.t) (inp : Wl.inputs) =
  let t0 = Util.now () in
  let cl = spawn w in
  List.iter
    (fun (p : Procs.t) ->
      control p.port (fun c -> ignore (ok_or (p.label ^ " ping") (Net.Client.ping c))))
    cl.procs;
  let n = Array.length inp.warmup in
  if n > 0 then begin
    let r =
      Load.run ~port:cl.entry.port ~conns ~stop:(Load.Count n)
        ~request:(fun i -> (inp.warmup.(i), -1))
        ~keep:[||] ~cycles:[||] ()
    in
    if r.failed > 0 then
      failwith
        (Printf.sprintf "warm-up: %d of %d requests failed (%s)" r.failed n
           (match r.failures with (_, m) :: _ -> m | [] -> "?"))
  end;
  (cl, Util.now () -. t0)

(* ------------------------------------------------------------------ *)
(* The servers' own counters, read over the wire                       *)
(* ------------------------------------------------------------------ *)

type counters = {
  stats : string list;  (** each shard's stats_json *)
  metrics : string list;  (** each shard's metrics_json *)
  failovers : float;  (** the proxy's, 0 without one *)
}

let snapshot cl =
  let bodies =
    List.map
      (fun (s : Procs.t) ->
        control s.port (fun c ->
            ( ok_or "stats_json" (Net.Client.stats_json c),
              ok_or "metrics_json" (Net.Client.metrics_json c) )))
      cl.shards
  in
  let failovers =
    if cl.entry == List.hd cl.shards then 0.0
    else
      control cl.entry.port (fun c ->
          let m = ok_or "members_json" (Net.Client.members_json c) in
          Option.value ~default:0.0 (Util.json_num m "failovers"))
  in
  { stats = List.map fst bodies; metrics = List.map snd bodies; failovers }

let per_shard c key =
  List.map (fun s -> Option.value ~default:0.0 (Util.json_num s key)) c.stats

let total c key = List.fold_left ( +. ) 0.0 (per_shard c key)

let metric c name field =
  List.fold_left (fun acc m -> acc +. Util.metric_field m name field) 0.0 c.metrics

let phase_names = [ "parse"; "restructure"; "validate"; "perfmodel" ]

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* The window must be the workload it names. *)
let shape_errors (w : Wl.t) ~uncached ~cache_hit_ratio ~memo_hit_ratio
    ~cache_misses =
  let check ok msg = if ok then [] else [ msg ] in
  match w.kind with
  | Wl.Hot_proxy ->
      check
        (uncached = 0 && cache_misses = 0.0)
        (Printf.sprintf "hot-proxy: %d replies and %.0f shard lookups missed the cache"
           uncached cache_misses)
  | Wl.Corpus_shared | Wl.Corpus_novel ->
      check (cache_hit_ratio <= 0.01)
        (Printf.sprintf "%s: cache hit ratio %.4f above 0.01" w.name cache_hit_ratio)
      @ check
          (w.kind <> Wl.Corpus_shared || memo_hit_ratio >= 0.8)
          (Printf.sprintf "corpus-shared: memo hit ratio %.3f is not high (< 0.8)"
             memo_hit_ratio)
      @ check
          (w.kind <> Wl.Corpus_novel || memo_hit_ratio <= 0.2)
          (Printf.sprintf "corpus-novel: memo hit ratio %.3f is not low (> 0.2)"
             memo_hit_ratio)

(* The fingerprint recorded in BENCHMARK.json: the workload's "why"
   ends in "(inputs <12 hex digits>)". *)
let recorded_fingerprint (w : Wl.t) =
  let file = "BENCHMARK.json" in
  if not (Sys.file_exists file) then None
  else
    let body = In_channel.with_open_bin file In_channel.input_all in
    match Util.after_sub body ("\"" ^ w.name ^ "\"") with
    | None -> None
    | Some from -> (
        match Util.after_sub ~from body "(inputs " with
        | Some p when p + 12 <= String.length body -> Some (String.sub body p 12)
        | _ -> None)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* perfmodel serial cycles over the reply's [r_cycles] (both cover the
   first PROGRAM unit), geometric mean over the first requests *)
let est_speedup (inp : Wl.inputs) cycles =
  List.init speedup_requests (fun i ->
      Option.map
        (fun par ->
          let r, _ = inp.request i in
          let cfg = r.req_options.Restructurer.Options.machine in
          (Perfmodel.Model.evaluate ~cfg (Fortran.Parser.parse_program r.req_source))
            .Perfmodel.Model.cycles /. par)
        cycles.(i))
  |> List.filter_map Fun.id |> Util.geomean

(* Sequential round trips on resident keys against the live servers:
   straight to the serving shard, and through the proxy when there is
   one. *)
let live_round_trips (w : Wl.t) (inp : Wl.inputs) cl =
  match w.kind with
  | Wl.Hot_proxy ->
      let ring = Cluster.Ring.make (List.map (fun (s : Procs.t) -> s.label) cl.shards) in
      let owner_port r =
        let owner = Cluster.Ring.lookup ring (Service.Server.cache_key r) in
        (List.find (fun (s : Procs.t) -> Some s.label = owner) cl.shards).port
      in
      let trips port_of = Layers.round_trips ~reps:5 ~port_of inp.fixed_list in
      let direct = trips owner_port in
      (direct, Some (trips (fun _ -> cl.entry.port)))
  | Wl.Corpus_shared | Wl.Corpus_novel ->
      let resident = Array.sub inp.fixed_list 0 16 in
      let port_of _ = cl.entry.port in
      (* refill keys the window's stream has long evicted *)
      ignore (Layers.round_trips ~reps:1 ~port_of resident);
      (Layers.round_trips ~reps:20 ~port_of resident, None)

let per_layer (w : Wl.t) (inp : Wl.inputs) ~served ~rtt_ms ~before ~after
    ~cache_hit_ratio ~memo_hit_ratio ~round_trips ~seed =
  let rp = Layers.replay w inp in
  let us q name = 1e6 *. Util.quantile q (Spans.self_times rp.spans name) in
  let mean_us name =
    let xs = Spans.self_times rp.spans name in
    1e6 *. ratio (Array.fold_left ( +. ) 0.0 xs) (float_of_int (Array.length xs))
  in
  let per_job n = float_of_int n /. float_of_int (Array.length inp.fixed_list) in
  let d f = f after -. f before in
  let hit_us = 1e6 *. Util.median (Layers.service_hits inp) in
  let direct, proxied = round_trips in
  let rtt_direct_us = 1e6 *. Util.median direct in
  let hop_us =
    match proxied with Some p -> (1e6 *. Util.median p) -. rtt_direct_us | None -> 0.0
  in
  let on_path =
    match w.kind with
    | Wl.Hot_proxy -> [ us 0.5 Layers.encode_us; us 0.5 Layers.decode_us; hit_us; hop_us ]
    | Wl.Corpus_shared | Wl.Corpus_novel ->
        List.map (us 0.5)
          Layers.
            [
              parse_us;
              restructure_us;
              emit_us;
              validate_us;
              perfmodel_us;
              encode_us;
              decode_us;
            ]
  in
  (* the server's phase histograms beside the replay's means: the gap is
     what running inside the service costs *)
  Printf.printf "phase means, server over the window vs in-process replay:%s\n"
    (String.concat ","
       (List.map2
          (fun ph span ->
            let key = "service_phase_" ^ ph ^ "_seconds" in
            let n = d (fun c -> metric c key "count") in
            Printf.sprintf " %s %.1f vs %.1f us" ph
              (1e6 *. ratio (d (fun c -> metric c key "sum")) n)
              (mean_us span))
          phase_names
          Layers.[ parse_us; restructure_us; validate_us; perfmodel_us ]));
  let dir = Filename.concat "perfbench" "_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Spans.write_chrome rp.spans
    (Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" w.name seed));
  [
    ("fortran.parse_us_p50", us 0.5 Layers.parse_us, "us");
    ("fortran.parse_us_p95", us 0.95 Layers.parse_us, "us");
    ("fortran.source_kb_per_job", per_job rp.source_bytes /. 1024.0, "KiB");
    ("restructurer.restructure_us_p50", us 0.5 Layers.restructure_us, "us");
    ("restructurer.restructure_us_p95", us 0.95 Layers.restructure_us, "us");
    ("restructurer.memo_hit_ratio", memo_hit_ratio, "ratio");
    ("restructurer.parallel_loops_per_job", per_job rp.parallel_loops, "count");
    ( "restructurer.versions_per_loop",
      ratio (float_of_int rp.versions) (float_of_int rp.loops),
      "count" );
    ("codegen.emit_us_p50", us 0.5 Layers.emit_us, "us");
    ("codegen.output_kb_per_job", per_job rp.output_bytes /. 1024.0, "KiB");
    ("validate.check_us_p50", us 0.5 Layers.validate_us, "us");
    ("validate.issues", float_of_int rp.issues, "count");
    ("perfmodel.evaluate_us_p50", us 0.5 Layers.perfmodel_us, "us");
    ("service.cache_hit_ratio", cache_hit_ratio, "ratio");
    ( "service.server_latency_ms_p50",
      (* mean over shards of each shard's p50 *)
      total after "p50_latency_ms" /. float_of_int (List.length after.stats),
      "ms" );
    ( "service.queue_high_water",
      List.fold_left Float.max 0.0 (per_shard after "queue_high_water"),
      "count" );
    ("service.retries", d (fun c -> total c "retries"), "count");
    ("service.hit_us_p50", hit_us, "us");
    ("net.encode_us_p50", us 0.5 Layers.encode_us, "us");
    ("net.decode_us_p50", us 0.5 Layers.decode_us, "us");
    ( "net.bytes_per_job",
      ratio
        (d (fun c ->
             metric c "net_bytes_read_total" "value"
             +. metric c "net_bytes_written_total" "value"))
        (float_of_int served),
      "B" );
    ("net.rtt_direct_us_p50", rtt_direct_us, "us");
    ("cluster.proxy_hop_us_p50", hop_us, "us");
    ("cluster.failovers", d (fun c -> c.failovers), "count");
    ("cluster.replica_hits", d (fun c -> total c "replicated_hits"), "count");
    ( "unattributed_ratio",
      1.0 -. (List.fold_left ( +. ) 0.0 on_path /. (1000.0 *. Util.median rtt_ms)),
      "ratio" );
    ( "trace_overhead_ratio",
      Util.median (Array.map2 ( /. ) rp.traced rp.untraced),
      "ratio" );
  ]

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%s = %.6g %s\n" name v unit) metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))

let run (w : Wl.t) ~seed ~seconds ~traced =
  Printf.printf "perfbench %s seed %d: %.0f s closed-loop window, %d connections, %s\n%!"
    w.name seed seconds conns
    (if traced then "per-layer (traced) run" else "end-to-end run");
  let cpus = Util.allowed_cpus () in
  Printf.printf "info: lib+bin lines %d, nproc %d, ocaml %s, runs on cpus %s\n%!"
    (Util.code_lines [ "lib"; "bin" ])
    (Util.online_cpus ())
    Sys.ocaml_version
    (String.concat "," (List.map string_of_int cpus));
  (* a changed generator is a different workload, not a speed change *)
  let reference = Wl.inputs_fingerprint (Wl.inputs w ~seed:0) in
  let inp = Wl.inputs w ~seed in
  Printf.printf "inputs: seed %d fingerprint %s; reference (seed 0) %s\n%!" seed
    (Wl.inputs_fingerprint inp) reference;
  (match recorded_fingerprint w with
  | Some fp when fp <> reference ->
      Printf.printf
        "inputs changed: %s's reference fingerprint is %s, BENCHMARK.json records \
         %s; this is a different workload and needs a new name\n%!"
        w.name reference fp;
      exit 1
  | Some _ -> ()
  | None -> Printf.printf "inputs: no fingerprint recorded for %s\n%!" w.name);
  (* set-up, several times; the last cluster stays up for the window *)
  let setups = List.init setup_reps (fun _ -> setup w inp) in
  List.iteri
    (fun k (cl, _) -> if k < setup_reps - 1 then List.iter Procs.stop cl.procs)
    setups;
  let setup_times = Array.of_list (List.map snd setups) in
  let cl = fst (List.nth setups (setup_reps - 1)) in
  let cpu () = List.fold_left (fun acc p -> acc +. Procs.cpu_s p) 0.0 cl.procs in
  (* peak RSS is read after a fixed number of replies, not at the end of
     the window, so that serving faster does not read as using more
     memory (the servers' heaps grow with the requests they serve) *)
  let peak_rss () = List.fold_left (fun acc p -> acc +. Procs.peak_rss_mb p) 0.0 cl.procs in
  let rss = ref None in
  let keep = Array.make (Array.length inp.fixed_list) None in
  let cycles = Array.make speedup_requests None in
  let before = snapshot cl in
  (* one slice: the ramp precedes only the first, and each later one
     continues the request stream where the previous stopped *)
  let counted = ref 0 in
  let slice k ~first ~ramp =
    let steal0, all0 = Util.cpu_steal cpus and cpu0 = cpu () in
    let win =
      Load.run ~first
        ~at:
          (match !rss with
          | None -> (w.rss_after - !counted, fun () -> rss := Some (peak_rss ()))
          | Some _ -> (0, ignore))
        ~port:cl.entry.port ~conns
        ~stop:(Load.Seconds { ramp; measure = seconds /. float_of_int slices })
        ~request:inp.request ~keep ~cycles ()
    in
    counted := !counted + win.ok;
    let steal1, all1 = Util.cpu_steal cpus in
    let steal = ratio (steal1 -. steal0) (all1 -. all0) in
    Printf.printf "slice %d: %d ok, %.1f req/s, steal %.1f%%\n%!" (k + 1)
      win.ok (float_of_int win.ok /. win.wall) (100.0 *. steal);
    (k, win, cpu () -. cpu0, steal)
  in
  let rec measure k ~first ~ramp ~calm =
    let ((_, win, _, steal) as this) = slice k ~first ~ramp in
    let calm = if steal <= max_steal then calm + 1 else calm in
    if calm >= slices || k + 1 >= max_slices then [ this ]
    else this :: measure (k + 1) ~first:win.Load.next ~ramp:0.0 ~calm
  in
  let all = measure 0 ~first:0 ~ramp:ramp_s ~calm:0 in
  (* the least-stolen slices, the earlier first among equals, in order *)
  let chosen =
    List.stable_sort (fun (_, _, _, a) (_, _, _, b) -> compare a b) all
    |> List.filteri (fun k _ -> k < slices)
    |> List.sort compare
  in
  let win = Load.merge (List.map (fun (_, x, _, _) -> x) chosen) in
  let win_cpu = List.fold_left (fun acc (_, _, c, _) -> acc +. c) 0.0 chosen in
  Printf.printf "chosen slices: %s of %d\n"
    (String.concat "," (List.map (fun (k, _, _, _) -> string_of_int (k + 1)) chosen))
    (List.length all);
  let all = List.map (fun (_, x, c, s) -> (x, c, s)) all in
  let sum f = List.fold_left (fun acc (x, _, _) -> acc + f x) 0 all in
  let failures = List.concat_map (fun ((x : Load.result), _, _) -> x.failures) all in
  let after = snapshot cl in
  let rss = match !rss with Some mb -> mb | None -> peak_rss () in
  let d f = f after -. f before in
  let hit_ratio hits misses =
    ratio (d (fun c -> total c hits)) (d (fun c -> total c hits +. total c misses))
  in
  let cache_hit_ratio = hit_ratio "cache_hits" "cache_misses" in
  let memo_hit_ratio = hit_ratio "memo_hits" "memo_misses" in
  let shape =
    shape_errors w
      ~uncached:(sum (fun x -> x.ok - x.cached))
      ~cache_hit_ratio ~memo_hit_ratio
      ~cache_misses:(d (fun c -> total c "cache_misses"))
  in
  let round_trips = if traced then Some (live_round_trips w inp cl) else None in
  List.iter Procs.stop cl.procs;
  let rejects = Oracle.check inp.fixed_list keep in
  let repro i =
    Printf.sprintf "repro: --workload %s --seed %d (request %d)" w.name seed i
  in
  List.iter (fun m -> Printf.printf "shape check failed: %s\n" m) shape;
  let report what (i, why) = Printf.printf "%s: %s; %s\n" what why (repro i) in
  List.iter (report "request failed") (List.filteri (fun k _ -> k < 10) failures);
  List.iter (report "oracle rejected") rejects;
  let attempted = sum (fun x -> x.attempted) + Array.length inp.fixed_list in
  let failed = sum (fun x -> x.failed) + List.length rejects in
  let rtt_ms = Array.map (fun s -> s *. 1000.0) win.rtts in
  Printf.printf
    "reported slices: %d attempted, %d ok, %d cached, %d failed over %.3f s; oracle: %d \
     distinct replies checked, %d rejected\n"
    win.attempted win.ok win.cached win.failed win.wall (Array.length inp.fixed_list)
    (List.length rejects);
  let per_s = Array.make (max 1 (int_of_float (ceil win.wall))) 0 in
  Array.iter
    (fun t ->
      let k = min (Array.length per_s - 1) (int_of_float t) in
      per_s.(k) <- per_s.(k) + 1)
    win.done_at;
  Printf.printf "completions per second of the reported slices: %s\n"
    (String.concat " " (Array.to_list (Array.map string_of_int per_s)));
  Printf.printf "setup_s samples: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_times)));
  Printf.printf "counters: cache hit ratio %.4f, memo hit ratio %.4f (window deltas)\n"
    cache_hit_ratio memo_hit_ratio;
  (* printed, not gated: error_ratio is 0 on every correct run, and the
     tail moves with the host's steal time far more than with the
     program on a shared 2-vCPU VM *)
  Printf.printf "error_ratio = %.6f (ungated; %d of %d, also in \"failed\")\n"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  Printf.printf "latency_p99_ms = %.6g ms (ungated; %d samples, %d beyond it)\n"
    (Util.quantile 0.99 rtt_ms) (Array.length rtt_ms) (Array.length rtt_ms / 100);
  let metrics =
    match round_trips with
    | Some round_trips ->
        per_layer w inp ~served:(sum (fun x -> x.served)) ~rtt_ms ~before ~after
          ~cache_hit_ratio ~memo_hit_ratio ~round_trips ~seed
    | None ->
        [
          ("throughput_rps", float_of_int win.ok /. win.wall, "1/s");
          ("latency_p50_ms", Util.median rtt_ms, "ms");
          ("est_speedup_geomean", est_speedup inp cycles, "x");
          ("server_rss_mb", rss, "MiB");
          ( "server_cpu_ms_per_req",
            (* on a first window, both counts span the ramp too *)
            1000.0 *. win_cpu /. float_of_int win.served,
            "ms" );
          ("setup_s", Util.median setup_times, "s");
        ]
  in
  let correct = failed = 0 && shape = [] in
  print_result ~correct ~attempted ~failed metrics;
  correct

(* Run this same command again on one CPU, the first this process may
   use, under taskset; the servers it spawns inherit the CPU.  Nothing
   has been started yet, so exec leaves nothing behind. *)
let pin_to_one_cpu () =
  match Util.allowed_cpus () with
  | cpu :: _ :: _ -> (
      let argv =
        Array.append
          [| "taskset"; "-c"; string_of_int cpu; Sys.executable_name |]
          (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
      in
      try Unix.execvp "taskset" argv
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "perfbench: taskset: %s; running on every CPU\n%!"
          (Unix.error_message e))
  | _ -> ()

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME corpus-shared | corpus-novel | hot-proxy" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match Wl.find !workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  | Some w ->
      if w.one_cpu then pin_to_one_cpu ();
      let correct = run w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) in
      exit (if correct then 0 else 1)
