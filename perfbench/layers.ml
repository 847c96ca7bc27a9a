(* The traced run's in-process side: replay, for every request of the
   workload's fixed list, the attempt the server makes (parse ->
   restructure -> emit -> validate -> perfmodel) plus the wire encode
   and decode of its real Submit and Result frames, each call under a
   span.  Also times in-process cache hits, and direct and proxied round
   trips against the live servers. *)

type replay = {
  spans : Spans.t;
  traced : float array;  (** whole-request time per request, seconds *)
  untraced : float array;  (** the same work with span recording off *)
  source_bytes : int;
  output_bytes : int;
  loops : int;
  parallel_loops : int;
  versions : int;
  issues : int;  (** validator issues (or reparse failures) found *)
}

let parse_us = "fortran.parse"
let restructure_us = "restructurer.restructure"
let emit_us = "codegen.emit"
let validate_us = "validate.check"
let perfmodel_us = "perfmodel.evaluate"
let encode_us = "net.encode"
let decode_us = "net.decode"

let submit_msg (r : Service.Server.request) =
  Net.Wire.Submit
    {
      Net.Wire.sub_name = r.req_name;
      sub_source = r.req_source;
      sub_options = r.req_options;
      sub_trace = 0;
    }

(* The server's attempt for request [i], then the wire frames it moves.
   Returns the emitted text, the loop reports and the validator issue
   count. *)
let attempt sp memo i (r : Service.Server.request) =
  let opts = r.req_options in
  let target = opts.Restructurer.Options.target in
  Spans.with_span sp ~req:i "request" (fun root ->
      let span name f = Spans.with_span sp ~parent:root ~req:i name (fun _ -> f ()) in
      let prog = span parse_us (fun () -> Fortran.Parser.parse_program r.req_source) in
      let res =
        span restructure_us (fun () -> Restructurer.Driver.restructure ~memo opts prog)
      in
      let text =
        span emit_us (fun () ->
            Codegen.Emit.program_to_string ~target res.Restructurer.Driver.program)
      in
      let issues =
        if not opts.Restructurer.Options.validate then 0
        else
          span validate_us (fun () ->
              match Validate.check_output ~target text with
              | Ok found -> List.length found
              | Error _ -> 1)
      in
      let cycles, words =
        span perfmodel_us (fun () ->
            match
              Perfmodel.Model.evaluate ~cfg:opts.Restructurer.Options.machine
                res.Restructurer.Driver.program
            with
            | run ->
                ( Some run.Perfmodel.Model.cycles,
                  Some run.Perfmodel.Model.global_words )
            | exception _ -> (None, None))
      in
      let reports = res.Restructurer.Driver.reports in
      let result_msg =
        Net.Wire.Result
          (Net.Wire.R_done
             {
               r_cached = false;
               r_rung = Service.Server.Full;
               r_text = text;
               r_cycles = cycles;
               r_global_words = words;
               r_notes = List.map Net.Wire.note_of_report reports;
               r_trace = 0;
             })
      in
      let frames =
        span encode_us (fun () ->
            [ Net.Wire.encode ~id:1 (submit_msg r); Net.Wire.encode ~id:1 result_msg ])
      in
      span decode_us (fun () -> List.iter (fun f -> ignore (Net.Wire.decode f)) frames);
      (text, reports, issues))

(* A fresh memo of the server's default capacity, warmed the way the
   server's is: with the warm-up stream on corpus-*, not at all on
   hot-proxy (whose warm-up is the keys themselves, reaching the shards'
   memos cold). *)
let warmed_memo (w : Wl.t) (inp : Wl.inputs) =
  let memo = Restructurer.Driver.create_memo ~capacity:1024 () in
  if w.kind <> Wl.Hot_proxy then
    Array.iter
      (fun (r : Service.Server.request) ->
        ignore
          (Restructurer.Driver.restructure ~memo r.req_options
             (Fortran.Parser.parse_program r.req_source)))
      inp.warmup;
  memo

(* Replay the fixed list twice, request by request: once with spans on
   and once off, each on its own identically warmed memo, alternating
   which goes first so both see the same ambient load. *)
let replay (w : Wl.t) (inp : Wl.inputs) =
  let memo_on = warmed_memo w inp and memo_off = warmed_memo w inp in
  let sp = Spans.create ~on:true and quiet = Spans.create ~on:false in
  let n = Array.length inp.fixed_list in
  let traced = Array.make n 0.0 and untraced = Array.make n 0.0 in
  let source_bytes = ref 0 and output_bytes = ref 0 in
  let loops = ref 0 and parallel_loops = ref 0 and versions = ref 0 in
  let issues = ref 0 in
  Array.iteri
    (fun i (r : Service.Server.request) ->
      let timed memo sp =
        let t0 = Util.now () in
        let out = attempt sp memo i r in
        (Util.now () -. t0, out)
      in
      let (t_on, (text, reports, found)), (t_off, _) =
        if i mod 2 = 0 then
          let on = timed memo_on sp in
          (on, timed memo_off quiet)
        else
          let off = timed memo_off quiet in
          (timed memo_on sp, off)
      in
      traced.(i) <- t_on;
      untraced.(i) <- t_off;
      issues := !issues + found;
      source_bytes := !source_bytes + String.length r.req_source;
      output_bytes := !output_bytes + String.length text;
      List.iter
        (fun (rep : Restructurer.Driver.loop_report) ->
          incr loops;
          versions := !versions + rep.r_versions;
          if rep.r_decision = "parallelized" then incr parallel_loops)
        reports)
    inp.fixed_list;
  {
    spans = sp;
    traced;
    untraced;
    source_bytes = !source_bytes;
    output_bytes = !output_bytes;
    loops = !loops;
    parallel_loops = !parallel_loops;
    versions = !versions;
    issues = !issues;
  }

(* In-process [Service.Server.run] on resident keys: fill 8 keys, then
   time repeated hits.  Seconds per hit. *)
let service_hits (inp : Wl.inputs) =
  let srv = Service.Server.create ~workers:1 ~cache_capacity:256 () in
  let keys = Array.sub inp.fixed_list 0 (min 8 (Array.length inp.fixed_list)) in
  Array.iter (fun r -> ignore (Service.Server.run srv r)) keys;
  let samples = ref [] in
  for _ = 1 to 50 do
    Array.iter
      (fun r ->
        let t0 = Util.now () in
        let out = Service.Server.run srv r in
        let dt = Util.now () -. t0 in
        match out with
        | Service.Server.Done { cached = true; _ } -> samples := dt :: !samples
        | _ -> ())
      keys
  done;
  ignore (Service.Server.shutdown srv);
  Array.of_list !samples

(* Sequential round trips on one connection per port for [reqs], each
   already resident in the serving cache.  [port_of r] picks the server.
   Returns seconds per round trip. *)
let round_trips ~reps ~port_of (reqs : Service.Server.request array) =
  let conns = Hashtbl.create 4 in
  let conn port =
    match Hashtbl.find_opt conns port with
    | Some c -> c
    | None -> (
        match Net.Client.connect (Load.client_cfg port) with
        | Ok c ->
            Hashtbl.replace conns port c;
            c
        | Error m -> failwith ("round trip connect: " ^ m))
  in
  let samples = ref [] in
  for _ = 1 to reps do
    Array.iter
      (fun (r : Service.Server.request) ->
        let c = conn (port_of r) in
        let t0 = Util.now () in
        match
          Net.Client.submit c ~name:r.req_name ~options:r.req_options r.req_source
        with
        | Ok (Net.Wire.R_done { r_cached = true; _ }) ->
            samples := (Util.now () -. t0) :: !samples
        | _ -> ())
      reqs
  done;
  Hashtbl.iter (fun _ c -> Net.Client.close c) conns;
  Array.of_list !samples
