(* The servers under test, each its own OS process: spawn on an
   ephemeral port, learn the port from the banner line, read peak RSS
   from /proc, and stop with SIGTERM (the same graceful drain as a
   Shutdown frame), waiting until the process has exited. *)

type t = {
  label : string;
  pid : int;
  out : Unix.file_descr;  (** the child's stdout *)
  port : int;
  mutable alive : bool;
}

let bin_dir = Filename.concat "_build" (Filename.concat "default" "bin")
let cedard_exe = Filename.concat bin_dir "cedard.exe"
let cedarproxy_exe = Filename.concat bin_dir "cedarproxy.exe"

(* USER_HZ: the unit of /proc/<pid>/stat times on Linux *)
let clock_ticks = 100.0

(* every child still running when the benchmark exits is killed *)
let live : t list ref = ref []

let kill_and_reap t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    try Unix.close t.out with Unix.Unix_error _ -> ()
  end

let () = at_exit (fun () -> List.iter kill_and_reap !live)

(* Read [fd] until [stop line] answers [Some v] or the deadline passes. *)
let read_until fd ~deadline stop =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec scan () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> (
        let all = Buffer.contents buf in
        let line = String.sub all 0 i in
        Buffer.clear buf;
        Buffer.add_string buf (String.sub all (i + 1) (String.length all - i - 1));
        match stop line with Some v -> Some v | None -> scan ())
    | None ->
        let left = deadline -. Util.now () in
        if left <= 0.0 then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  scan ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan ()
  in
  scan ()

(* ["...serving on 127.0.0.1:40123 (..."] -> 40123 *)
let port_after marker line =
  match Util.after_sub line marker with
  | None -> None
  | Some p -> (
      match String.index_from_opt line p ':' with
      | None -> None
      | Some colon ->
          int_of_string_opt
            (Util.span_from line (colon + 1) (fun c -> c >= '0' && c <= '9')))

let spawn ~label ~marker exe args =
  if not (Sys.file_exists exe) then
    failwith (Printf.sprintf "%s: not built (%s missing)" label exe);
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  match read_until out_r ~deadline:(Util.now () +. 30.0) (port_after marker) with
  | Some port ->
      let t = { label; pid; out = out_r; port; alive = true } in
      live := t :: !live;
      t
  | None ->
      kill_and_reap { label; pid; out = out_r; port = 0; alive = true };
      failwith (Printf.sprintf "%s: no listening banner within 30 s" label)

(* One cedard on its default pool, cache and memo sizes (the CLI's own
   worker default is 4; 2 is what the pool caps to on a 2-core host, so
   it is passed to keep the process identical on wider hosts). *)
let cedard ~label ?(args = []) () =
  spawn ~label ~marker:"serving on" cedard_exe
    ([ "--serve"; "0"; "--workers"; "2" ] @ args)

let cedarproxy ~label shards =
  let spec =
    String.concat ","
      (List.map (fun s -> Printf.sprintf "%s=127.0.0.1:%d" s.label s.port) shards)
  in
  spawn ~label ~marker:" on " cedarproxy_exe [ "--shards"; spec; "-p"; "0" ]

(* Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable. *)
let peak_rss_mb t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status -> (
      match Util.after_sub status "VmHWM:" with
      | None -> 0.0
      | Some p ->
          let p = ref p in
          while !p < String.length status && (status.[!p] = ' ' || status.[!p] = '\t') do
            incr p
          done;
          Option.value ~default:0.0
            (float_of_string_opt
               (Util.span_from status !p (fun c -> c >= '0' && c <= '9')))
          /. 1024.0)

(* CPU time (user + system) the process has used so far, in seconds;
   0 when /proc is unavailable. *)
let cpu_s t =
  let path = Printf.sprintf "/proc/%d/stat" t.pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | stat -> (
      (* fields after the parenthesised command name; utime and stime are
         the 12th and 13th of them, in clock ticks *)
      match String.rindex_opt stat ')' with
      | None -> 0.0
      | Some p -> (
          let fields =
            String.split_on_char ' ' (String.sub stat (p + 2) (String.length stat - p - 2))
          in
          match (List.nth_opt fields 11, List.nth_opt fields 12) with
          | Some u, Some s -> (
              match (float_of_string_opt u, float_of_string_opt s) with
              | Some u, Some s -> (u +. s) /. clock_ticks
              | _ -> 0.0)
          | _ -> 0.0))

(* SIGTERM, drain stdout to EOF, reap; SIGKILL after 20 s. *)
let stop t =
  if t.alive then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Util.now () +. 20.0 in
    ignore (read_until t.out ~deadline (fun _ -> None));
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Util.now () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ -> kill_and_reap t
      | _ ->
          t.alive <- false;
          (try Unix.close t.out with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error _ -> kill_and_reap t
    in
    reap ();
    live := List.filter (fun p -> p.pid <> t.pid) !live
  end
