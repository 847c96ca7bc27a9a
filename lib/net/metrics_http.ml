(* Minimal HTTP/1.0 endpoint for the Prometheus text dump.  One accept
   fiber, one short-lived connection per scrape: read the request head,
   answer with the dump, close.  Deliberately not a web server — just
   enough HTTP for `curl` and a Prometheus scraper. *)

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  loop : Aio.t;
  mutable accept_fiber : Aio.fiber option;  (* loop thread only *)
}

let http_response body =
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let has_blank_line s =
  let rec has i =
    i + 4 <= String.length s && (String.sub s i 4 = "\r\n\r\n" || has (i + 1))
  in
  has 0

(* Read until the blank line ending the request head (or 4 KiB, or the
   read deadline) — the request itself is ignored: every path serves the
   dump. *)
let drain_request fd =
  let deadline = Aio.now () +. 2.0 in
  let buf = Bytes.create 512 in
  let seen = Buffer.create 256 in
  let rec go () =
    if Buffer.length seen < 4096 && not (has_blank_line (Buffer.contents seen))
    then
      match Aio.read ~deadline fd buf 0 (Bytes.length buf) with
      | `Data n ->
          Buffer.add_subbytes seen buf 0 n;
          go ()
      | `Eof | `Deadline -> ()
  in
  go ()

let serve_one fd dump =
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.set_nonblock fd;
  drain_request fd;
  let b = Bytes.unsafe_of_string (http_response (dump ())) in
  ignore (Aio.write_all ~deadline:(Aio.now () +. 5.0) fd b 0 (Bytes.length b))

let accept_loop t dump =
  Fun.protect ~finally:(fun () ->
      try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
  @@ fun () -> Aio.accept_each t.listen_fd (fun fd -> serve_one fd dump)

let start ?(host = "127.0.0.1") ~port loop dump =
  let listen_fd, bound_port = Aio.listen ~host ~port ~backlog:16 in
  let t = { listen_fd; bound_port; loop; accept_fiber = None } in
  let spawn () =
    t.accept_fiber <- Some (Aio.spawn_on loop (fun () -> accept_loop t dump))
  in
  if not (Aio.post loop spawn) then begin
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    invalid_arg "Metrics_http.start: the loop has finished"
  end;
  t

let port t = t.bound_port

(* posts are FIFO, so the cancel always lands after [start]'s spawn *)
let stop t =
  ignore
    (Aio.post t.loop (fun () ->
         Option.iter (Aio.cancel_on t.loop) t.accept_fiber))
