(* cedarnet wire protocol.  See wire.mli for the frame layout.

   The decoder is written against adversarial input: every read goes
   through a bounds-checked cursor, every enum byte is validated, and
   the only way out of a bad payload is the typed [error] — a garbage
   frame must never raise out of [decode] or [Stream.next]. *)

let magic = "CDRN"
let version = 6
let header_bytes = 20
let hard_max_payload = 1 lsl 26 (* 64 MiB *)

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Truncated
  | Length_overflow of int
  | Malformed of string

let error_to_string = function
  | Bad_magic -> "bad magic (not a cedarnet frame)"
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_kind k -> Printf.sprintf "unknown message kind %d" k
  | Truncated -> "truncated frame"
  | Length_overflow n ->
      Printf.sprintf "announced payload of %d bytes exceeds the %d-byte limit"
        n hard_max_payload
  | Malformed what -> Printf.sprintf "malformed payload: %s" what

type note = {
  n_unit : string;
  n_index : string;
  n_depth : int;
  n_decision : string;
  n_techniques : string list;
}

type submit = {
  sub_name : string;
  sub_source : string;
  sub_options : Restructurer.Options.t;
  sub_trace : int;
}

(* Warm-cache replication: a shard pushes a completed full-rung cache
   entry to its ring successor.  The rung is implicit — only full-rung
   results are ever cached, so only they replicate. *)
type cache_push = {
  cp_key : string;  (* content address minted on the origin shard *)
  cp_digest : string;  (* digest of [cp_text] at fill time *)
  cp_name : string;
  cp_text : string;
  cp_cycles : float option;
  cp_global_words : float option;
  cp_notes : note list;
}

(* Dynamic membership: an operator adds or removes a shard from a
   running proxy's member set.  The ack echoes the ring epoch the
   change produced, so a caller can assert convergence. *)
type cluster_add = { ca_id : string; ca_host : string; ca_port : int }
type cluster_ack = { ack_ok : bool; ack_epoch : int; ack_msg : string }

type reply =
  | R_done of {
      r_cached : bool;
      r_rung : Service.Server.rung;
      r_text : string;
      r_cycles : float option;
      r_global_words : float option;
      r_notes : note list;
      r_trace : int;
    }
  | R_failed of string
  | R_timeout
  | R_cancelled
  | R_overloaded
  | R_too_large of { limit : int; got : int }
  | R_error of string

type message =
  | Ping
  | Pong
  | Submit of submit
  | Result of reply
  | Shutdown_req
  | Shutdown_ack
  | Cache_push of cache_push
  | Cache_ack of bool
  | Stats_json_req
  | Stats_json of string
  | Metrics_json_req
  | Metrics_json of string
  | Cluster_add of cluster_add
  | Cluster_remove of string
  | Cluster_ack of cluster_ack
  | Members_json_req
  | Members_json of string

(* each kind's code on the wire and its name *)
let kind = function
  | Ping -> (1, "ping")
  | Pong -> (2, "pong")
  | Submit _ -> (3, "submit")
  | Result _ -> (4, "result")
  | Shutdown_req -> (9, "shutdown-req")
  | Shutdown_ack -> (10, "shutdown-ack")
  | Cache_push _ -> (11, "cache-push")
  | Cache_ack _ -> (12, "cache-ack")
  | Stats_json_req -> (13, "stats-json-req")
  | Stats_json _ -> (14, "stats-json")
  | Metrics_json_req -> (15, "metrics-json-req")
  | Metrics_json _ -> (16, "metrics-json")
  | Cluster_add _ -> (19, "cluster-add")
  | Cluster_remove _ -> (20, "cluster-remove")
  | Cluster_ack _ -> (21, "cluster-ack")
  | Members_json_req -> (22, "members-json-req")
  | Members_json _ -> (23, "members-json")

let message_kind_name msg = snd (kind msg)

(* conversions between the wire [note] and the driver's loop report,
   shared by every front-end that carries reports across the wire *)
let note_of_report (r : Restructurer.Driver.loop_report) =
  {
    n_unit = r.Restructurer.Driver.r_unit;
    n_index = r.Restructurer.Driver.r_index;
    n_depth = r.Restructurer.Driver.r_depth;
    n_decision = r.Restructurer.Driver.r_decision;
    n_techniques = r.Restructurer.Driver.r_techniques;
  }

(* the note carries the report's wire-visible subset; the fields that
   never crossed the wire (mode, blockers, version count) come back
   empty, exactly as the original reply path forgets them *)
let report_of_note (n : note) : Restructurer.Driver.loop_report =
  {
    Restructurer.Driver.r_unit = n.n_unit;
    r_index = n.n_index;
    r_depth = n.n_depth;
    r_decision = n.n_decision;
    r_mode = None;
    r_techniques = n.n_techniques;
    r_blockers = [];
    r_versions = 0;
  }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* the byte primitives and the request content (source, options,
   target) are the codec's, shared with the service's cache key *)
module C = Restructurer.Codec

let rung_code = function
  | Service.Server.Full -> 0
  | Service.Server.Conservative -> 1
  | Service.Server.Passthrough -> 2

let put_note b n =
  C.put_string b n.n_unit;
  C.put_string b n.n_index;
  C.put_int b n.n_depth;
  C.put_string b n.n_decision;
  C.put_int b (List.length n.n_techniques);
  List.iter (C.put_string b) n.n_techniques

let put_reply b = function
  | R_done d ->
      C.put_u8 b 0;
      C.put_bool b d.r_cached;
      C.put_u8 b (rung_code d.r_rung);
      C.put_string b d.r_text;
      C.put_opt_f64 b d.r_cycles;
      C.put_opt_f64 b d.r_global_words;
      C.put_int b (List.length d.r_notes);
      List.iter (put_note b) d.r_notes;
      C.put_int b d.r_trace
  | R_failed msg ->
      C.put_u8 b 1;
      C.put_string b msg
  | R_timeout -> C.put_u8 b 2
  | R_cancelled -> C.put_u8 b 3
  | R_overloaded -> C.put_u8 b 4
  | R_too_large { limit; got } ->
      C.put_u8 b 5;
      C.put_int b limit;
      C.put_int b got
  | R_error msg ->
      C.put_u8 b 6;
      C.put_string b msg

let put_payload b = function
  | Ping | Pong | Shutdown_req | Shutdown_ack | Stats_json_req
  | Metrics_json_req | Members_json_req ->
      ()
  | Stats_json s | Metrics_json s | Members_json s -> Buffer.add_string b s
  | Submit s ->
      (* name and trace first: the keyed content is the payload's tail *)
      C.put_string b s.sub_name;
      C.put_int b s.sub_trace;
      C.put_content b ~source:s.sub_source s.sub_options
  | Result r -> put_reply b r
  | Cache_push p ->
      C.put_string b p.cp_key;
      C.put_string b p.cp_digest;
      C.put_string b p.cp_name;
      C.put_string b p.cp_text;
      C.put_opt_f64 b p.cp_cycles;
      C.put_opt_f64 b p.cp_global_words;
      C.put_int b (List.length p.cp_notes);
      List.iter (put_note b) p.cp_notes
  | Cache_ack admitted -> C.put_bool b admitted
  | Cluster_add a ->
      C.put_string b a.ca_id;
      C.put_string b a.ca_host;
      C.put_int b a.ca_port
  | Cluster_remove id -> C.put_string b id
  | Cluster_ack a ->
      C.put_bool b a.ack_ok;
      C.put_int b a.ack_epoch;
      C.put_string b a.ack_msg

(* room for the payload's bulk, so the buffer rarely regrows *)
let size_hint = function
  | Submit s -> String.length s.sub_source + 512
  | Result (R_done d) -> String.length d.r_text + 256
  | Cache_push p -> String.length p.cp_text + 256
  | Stats_json s | Metrics_json s | Members_json s -> String.length s
  | _ -> 64

let set_header f ~kind ~id ~len =
  Bytes.blit_string magic 0 f 0 4;
  Bytes.set_uint8 f 4 version;
  Bytes.set_uint8 f 5 kind;
  Bytes.set_uint16_be f 6 0;
  Bytes.set_int64_be f 8 (Int64.of_int id);
  Bytes.set_int32_be f 16 (Int32.of_int len)

(* the payload is written behind a placeholder header, which is filled
   in once the length is known *)
let encode ~id msg =
  let b = Buffer.create (header_bytes + size_hint msg) in
  Buffer.add_string b (String.make header_bytes '\000');
  put_payload b msg;
  let f = Buffer.to_bytes b in
  set_header f ~kind:(fst (kind msg)) ~id ~len:(Bytes.length f - header_bytes);
  Bytes.unsafe_to_string f

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Payload reads raise the codec's [Truncated] / [Malformed]; [Err]
   carries the frame-level errors.  [guard] turns all three into the
   typed [error]. *)
exception Err of error

let guard f =
  match f () with
  | v -> Ok v
  | exception Err e -> Error e
  | exception C.Truncated -> Error Truncated
  | exception C.Malformed what -> Error (Malformed what)

let get_note c =
  let n_unit = C.get_string c in
  let n_index = C.get_string c in
  let n_depth = C.get_int c in
  let n_decision = C.get_string c in
  let k = C.get_count c "technique" in
  let n_techniques = List.init k (fun _ -> C.get_string c) in
  { n_unit; n_index; n_depth; n_decision; n_techniques }

let get_reply c =
  match C.get_u8 c with
  | 0 ->
      let r_cached = C.get_bool c in
      let r_rung =
        match C.get_u8 c with
        | 0 -> Service.Server.Full
        | 1 -> Service.Server.Conservative
        | 2 -> Service.Server.Passthrough
        | v -> raise (Err (Malformed (Printf.sprintf "rung byte %d" v)))
      in
      let r_text = C.get_string c in
      let r_cycles = C.get_opt_f64 c in
      let r_global_words = C.get_opt_f64 c in
      let k = C.get_count c "note" in
      let r_notes = List.init k (fun _ -> get_note c) in
      let r_trace = C.get_int c in
      R_done
        { r_cached; r_rung; r_text; r_cycles; r_global_words; r_notes; r_trace }
  | 1 -> R_failed (C.get_string c)
  | 2 -> R_timeout
  | 3 -> R_cancelled
  | 4 -> R_overloaded
  | 5 ->
      let limit = C.get_int c in
      let got = C.get_int c in
      R_too_large { limit; got }
  | 6 -> R_error (C.get_string c)
  | v -> raise (Err (Malformed (Printf.sprintf "reply tag %d" v)))

let get_submit c =
  let sub_name = C.get_string c in
  let sub_trace = C.get_int c in
  let sub_source, sub_options = C.get_content c in
  { sub_name; sub_source; sub_options; sub_trace }

let get_cache_push c =
  let cp_key = C.get_string c in
  let cp_digest = C.get_string c in
  let cp_name = C.get_string c in
  let cp_text = C.get_string c in
  let cp_cycles = C.get_opt_f64 c in
  let cp_global_words = C.get_opt_f64 c in
  let k = C.get_count c "note" in
  let cp_notes = List.init k (fun _ -> get_note c) in
  { cp_key; cp_digest; cp_name; cp_text; cp_cycles; cp_global_words; cp_notes }

(* decode the payload of the complete frame [s], whose header checked:
   the frame is only read — every string that survives is a fresh
   extraction *)
let decode_payload kind s =
  let len = String.length s - header_bytes in
  let c =
    { C.src = Bytes.unsafe_of_string s; pos = header_bytes;
      limit = String.length s }
  in
  let empty msg =
    if len <> 0 then raise (Err (Malformed "nonempty payload"));
    msg
  in
  (* the whole payload is the message text *)
  let text () =
    c.pos <- c.limit;
    String.sub s header_bytes len
  in
  let msg =
    match kind with
    | 1 -> empty Ping
    | 2 -> empty Pong
    | 3 -> Submit (get_submit c)
    | 4 -> Result (get_reply c)
    | 9 -> empty Shutdown_req
    | 10 -> empty Shutdown_ack
    | 11 -> Cache_push (get_cache_push c)
    | 12 -> Cache_ack (C.get_bool c)
    | 13 -> empty Stats_json_req
    | 14 -> Stats_json (text ())
    | 15 -> empty Metrics_json_req
    | 16 -> Metrics_json (text ())
    | 19 ->
        let ca_id = C.get_string c in
        let ca_host = C.get_string c in
        let ca_port = C.get_int c in
        Cluster_add { ca_id; ca_host; ca_port }
    | 20 -> Cluster_remove (C.get_string c)
    | 21 ->
        let ack_ok = C.get_bool c in
        let ack_epoch = C.get_int c in
        let ack_msg = C.get_string c in
        Cluster_ack { ack_ok; ack_epoch; ack_msg }
    | 22 -> empty Members_json_req
    | 23 -> Members_json (text ())
    | k -> raise (Err (Bad_kind k))
  in
  if c.pos <> c.limit then raise (Err (Malformed "trailing payload bytes"));
  msg

type header = { h_kind : int; h_id : int; h_len : int }

let magic_at src pos =
  Bytes.get src pos = magic.[0]
  && Bytes.get src (pos + 1) = magic.[1]
  && Bytes.get src (pos + 2) = magic.[2]
  && Bytes.get src (pos + 3) = magic.[3]

let decode_header_at src ~pos ~len =
  if len < header_bytes then Error Truncated
  else if not (magic_at src pos) then Error Bad_magic
  else
    let v = Char.code (Bytes.get src (pos + 4)) in
    if v <> version then Error (Bad_version v)
    else
      let kind = Char.code (Bytes.get src (pos + 5)) in
      let id = Int64.to_int (Bytes.get_int64_be src (pos + 8)) in
      let plen = Int32.to_int (Bytes.get_int32_be src (pos + 16)) in
      if plen < 0 || plen > hard_max_payload then Error (Length_overflow plen)
      else Ok { h_kind = kind; h_id = id; h_len = plen }

(* a complete frame's header, checked against the frame's length.
   [Bytes.unsafe_of_string] here and below is sound: the cursor and the
   header reader only ever read from [src] *)
let frame_header s =
  let n = String.length s in
  match decode_header_at (Bytes.unsafe_of_string s) ~pos:0 ~len:n with
  | Error _ as e -> e
  | Ok h ->
      if n < header_bytes + h.h_len then Error Truncated
      else if n > header_bytes + h.h_len then
        Error (Malformed "trailing bytes after frame")
      else Ok h

let decode s =
  Result.bind (frame_header s) (fun h ->
      guard (fun () -> (h.h_id, decode_payload h.h_kind s)))

(* ------------------------------------------------------------------ *)
(* Raw frames                                                          *)
(* ------------------------------------------------------------------ *)

let frame_id s = Int64.to_int (String.get_int64_be s 8)

let with_id s id =
  let f = Bytes.of_string s in
  Bytes.set_int64_be f 8 (Int64.of_int id);
  Bytes.unsafe_to_string f

(* The same checks, in the same order, as [decode] of a Submit — the
   codec's skip walks the tables its decoder walks — so a frame passes
   here exactly when it decodes, with the same error otherwise. *)
let submit_key s =
  match frame_header s with
  | Ok h when h.h_kind <> 3 (* Submit *) -> None
  | header ->
      Some
        (Result.bind header (fun _ ->
             guard (fun () ->
                 let c =
                   { C.src = Bytes.unsafe_of_string s; pos = header_bytes;
                     limit = String.length s }
                 in
                 ignore (C.get_string c);
                 ignore (C.get_int c);
                 let start = c.pos in
                 C.skip_content c;
                 if c.pos <> c.limit then
                   raise (Err (Malformed "trailing payload bytes"));
                 Digest.to_hex (Digest.substring s start (c.limit - start)))))

let peek_reply s =
  match frame_header s with
  | Ok { h_kind = 4 (* Result *); h_len; _ } when h_len > 0 ->
      (* tag 4 is R_overloaded, as [put_reply] writes it *)
      Some (if s.[header_bytes] = '\004' then `Overloaded else `Other)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Stream IO                                                           *)
(* ------------------------------------------------------------------ *)

(* the one registration of the byte counters; every reader and writer
   of cedarnet frames adds to these *)
let bytes_read =
  Obs.Metrics.counter Obs.Metrics.global ~help:"cedarnet bytes read"
    "net_bytes_read_total"

let bytes_written =
  Obs.Metrics.counter Obs.Metrics.global ~help:"cedarnet bytes written"
    "net_bytes_written_total"

(* ------------------------------------------------------------------ *)
(* Incremental stream decoder                                          *)
(* ------------------------------------------------------------------ *)

(* A resumable frame decoder, the one frame reader every peer uses:
   bytes go in via [feed] as they arrive, frames come out via [next].
   It never touches a descriptor, so "the sender stalled" is not its
   concern — an event loop observes [midframe] and arms a deadline
   (SO_RCVTIMEO does nothing on a non-blocking descriptor), a blocking
   reader leaves it to SO_RCVTIMEO.  Oversized payloads are consumed
   into the void in constant memory, so the stream stays synchronized
   across a typed rejection. *)
module Stream = struct
  type state =
    | S_header
    | S_payload of header
    | S_drain of { d_id : int; d_len : int; mutable d_left : int }
    | S_fail of error  (* sticky: an undecodable stream cannot resync *)

  type t = {
    st_max : int;
    mutable st_data : Bytes.t;  (* window [st_pos, st_pos + st_len) *)
    mutable st_pos : int;
    mutable st_len : int;
    mutable st_state : state;
  }

  let create ?(max_payload = hard_max_payload) () =
    {
      st_max = max_payload;
      st_data = Bytes.create 4096;
      st_pos = 0;
      st_len = 0;
      st_state = S_header;
    }

  let buffered st = st.st_len

  let feed st src off len =
    if off < 0 || len < 0 || off + len > Bytes.length src then
      invalid_arg "Wire.Stream.feed";
    let cap = Bytes.length st.st_data in
    if st.st_pos + st.st_len + len > cap then begin
      (* compact, then grow if the window still does not fit *)
      if st.st_pos > 0 then begin
        Bytes.blit st.st_data st.st_pos st.st_data 0 st.st_len;
        st.st_pos <- 0
      end;
      if st.st_len + len > cap then begin
        let cap' = ref (max 4096 cap) in
        while st.st_len + len > !cap' do
          cap' := !cap' * 2
        done;
        let data' = Bytes.create !cap' in
        Bytes.blit st.st_data 0 data' 0 st.st_len;
        st.st_data <- data'
      end
    end;
    Bytes.blit src off st.st_data (st.st_pos + st.st_len) len;
    st.st_len <- st.st_len + len

  let consume st n =
    st.st_pos <- st.st_pos + n;
    st.st_len <- st.st_len - n;
    if st.st_len = 0 then st.st_pos <- 0

  let rec next_raw st =
    match st.st_state with
    | S_fail e -> `Fail e
    | S_drain d ->
        let n = min st.st_len d.d_left in
        consume st n;
        d.d_left <- d.d_left - n;
        if d.d_left = 0 then begin
          st.st_state <- S_header;
          `Oversized (d.d_id, d.d_len)
        end
        else `Need_more
    | S_header ->
        if st.st_len < header_bytes then `Need_more
        else begin
          match decode_header_at st.st_data ~pos:st.st_pos ~len:st.st_len with
          | Error e ->
              st.st_state <- S_fail e;
              `Fail e
          | Ok h ->
              consume st header_bytes;
              st.st_state <-
                (if h.h_len > st.st_max then
                   S_drain { d_id = h.h_id; d_len = h.h_len; d_left = h.h_len }
                 else S_payload h);
              next_raw st
        end
    | S_payload h ->
        if st.st_len < h.h_len then `Need_more
        else begin
          let f = Bytes.create (header_bytes + h.h_len) in
          set_header f ~kind:h.h_kind ~id:h.h_id ~len:h.h_len;
          Bytes.blit st.st_data st.st_pos f header_bytes h.h_len;
          consume st h.h_len;
          st.st_state <- S_header;
          `Frame (Bytes.unsafe_to_string f)
        end

  (* a payload that does not decode fails the stream, as a header does *)
  let next st =
    match next_raw st with
    | `Frame f -> (
        match decode f with
        | Ok m -> `Frame m
        | Error e ->
            st.st_state <- S_fail e;
            `Fail e)
    | (`Oversized _ | `Need_more | `Fail _) as v -> v

  (* at least one byte of an incomplete frame is pending: the peer
     started a request and has not finished it.  This is the predicate
     the event loop turns into a per-frame deadline. *)
  let midframe st =
    match st.st_state with
    | S_payload _ | S_drain _ -> true
    | S_header -> st.st_len > 0
    | S_fail _ -> false
end

let write_raw fd s =
  (* sound: Unix.write only reads the buffer *)
  let b = Bytes.unsafe_of_string s in
  let rec go off len =
    if len > 0 then begin
      match Unix.write fd b off len with
      | n ->
          Obs.Metrics.incr ~by:n bytes_written;
          go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
    end
  in
  go 0 (Bytes.length b)

let write_frame fd ~id msg = write_raw fd (encode ~id msg)
