(* See trace.mli.  Concurrency structure: each domain keeps its own
   open-span stack in domain-local storage (spans never migrate between
   domains), so the only shared state is the tracer's finished-roots
   list, guarded by one mutex.  The disabled fast path reads a single
   atomic flag and never touches the clock or the DLS stack. *)

type kind = Disabled | Memory | Chrome of string

type tree = {
  t_name : string;
  t_trace : int;
  t_attrs : (string * string) list;
  t_counts : (string * int) list;
  t_start_s : float;
  t_stop_s : float;
  t_domain : int;
  t_children : tree list;
}

type t = {
  kind : kind;
  mx : Mutex.t;
  mutable finished : tree list;  (* newest first *)
  epoch : float;  (* chrome timestamps are relative to tracer creation *)
}

type span = {
  sp_name : string;
  sp_trace : int;
  mutable sp_attrs : (string * string) list;
  mutable sp_counts : (string * int) list;
  sp_start : float;
  mutable sp_children : tree list;  (* newest first *)
  sp_sink : t option;  (* None for null_span *)
}

let now () = Unix.gettimeofday ()

let make kind = { kind; mx = Mutex.create (); finished = []; epoch = now () }
let disabled = make Disabled
let memory () = make Memory
let chrome ~path = make (Chrome path)

let ambient = Atomic.make disabled
let on = Atomic.make false

let install t =
  Atomic.set ambient t;
  Atomic.set on (t.kind <> Disabled)

let installed () = Atomic.get ambient
let enabled () = Atomic.get on

let null_span =
  {
    sp_name = "";
    sp_trace = 0;
    sp_attrs = [];
    sp_counts = [];
    sp_start = 0.0;
    sp_children = [];
    sp_sink = None;
  }

(* ------------------------------------------------------------------ *)
(* Per-domain span stack and trace context                             *)
(* ------------------------------------------------------------------ *)

type dstate = { mutable stack : span list; mutable trace : int }

let key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { stack = []; trace = 0 })

let trace_counter = Atomic.make 0
let fresh_trace_id () = 1 + Atomic.fetch_and_add trace_counter 1

let with_trace_id id f =
  let st = Domain.DLS.get key in
  let saved = st.trace in
  st.trace <- id;
  Fun.protect ~finally:(fun () -> st.trace <- saved) f

let current_trace_id () = (Domain.DLS.get key).trace

(* ------------------------------------------------------------------ *)
(* Span lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let attach sink tree st =
  match st.stack with
  | parent :: _ -> parent.sp_children <- tree :: parent.sp_children
  | [] ->
      if sink.kind <> Disabled then begin
        Mutex.lock sink.mx;
        sink.finished <- tree :: sink.finished;
        Mutex.unlock sink.mx
      end

let finish (sp : span) st =
  (* pop exactly this span; an exception inside a child's [finally]
     cannot desynchronize the stack because closes run innermost-first *)
  (match st.stack with s :: rest when s == sp -> st.stack <- rest | _ -> ());
  let tree =
    {
      t_name = sp.sp_name;
      t_trace = sp.sp_trace;
      t_attrs = List.rev sp.sp_attrs;
      t_counts = List.rev sp.sp_counts;
      t_start_s = sp.sp_start;
      t_stop_s = now ();
      t_domain = (Domain.self () :> int);
      t_children = List.rev sp.sp_children;
    }
  in
  match sp.sp_sink with None -> () | Some sink -> attach sink tree st

let with_span ?(attrs = []) name f =
  if not (Atomic.get on) then f null_span
  else begin
    let st = Domain.DLS.get key in
    let sp =
      {
        sp_name = name;
        sp_trace = st.trace;
        sp_attrs = List.rev attrs;
        sp_counts = [];
        sp_start = now ();
        sp_children = [];
        sp_sink = Some (Atomic.get ambient);
      }
    in
    st.stack <- sp :: st.stack;
    Fun.protect ~finally:(fun () -> finish sp st) (fun () -> f sp)
  end

let attr sp k v =
  if sp.sp_sink <> None then
    sp.sp_attrs <- (k, v) :: List.remove_assoc k sp.sp_attrs

let count sp k n =
  if sp.sp_sink <> None then
    let cur = Option.value ~default:0 (List.assoc_opt k sp.sp_counts) in
    sp.sp_counts <- (k, cur + n) :: List.remove_assoc k sp.sp_counts

let completed ?(attrs = []) ~start_s ~stop_s name =
  if Atomic.get on then begin
    let st = Domain.DLS.get key in
    let tree =
      {
        t_name = name;
        t_trace = st.trace;
        t_attrs = attrs;
        t_counts = [];
        t_start_s = start_s;
        t_stop_s = stop_s;
        t_domain = (Domain.self () :> int);
        t_children = [];
      }
    in
    attach (Atomic.get ambient) tree st
  end

let roots t =
  Mutex.lock t.mx;
  let r = List.rev t.finished in
  Mutex.unlock t.mx;
  r

let rec find_spans p forest =
  List.concat_map
    (fun tr ->
      (if p tr then [ tr ] else []) @ find_spans p tr.t_children)
    forest

(* ------------------------------------------------------------------ *)
(* Chrome trace-event output                                           *)
(* ------------------------------------------------------------------ *)

(* one complete ("X") event per finished span, in preorder; args carry
   the trace id, attributes and counters.  Times are microseconds from
   tracer creation, rounded to 0.1 us. *)
let rec events ~epoch tr =
  let us x = Float.round (x *. 1e7) /. 10.0 in
  let args =
    (if tr.t_trace > 0 then [ ("trace", Json.Int tr.t_trace) ] else [])
    @ List.map (fun (k, v) -> (k, Json.String v)) tr.t_attrs
    @ List.map (fun (k, n) -> (k, Json.Int n)) tr.t_counts
  in
  let ev =
    Json.Obj
      [
        ("name", Json.String tr.t_name);
        ("cat", Json.String "cedar");
        ("ph", Json.String "X");
        ("ts", Json.Float (us (tr.t_start_s -. epoch)));
        ("dur", Json.Float (us (Float.max 0.0 (tr.t_stop_s -. tr.t_start_s))));
        ("pid", Json.Int 1);
        ("tid", Json.Int tr.t_domain);
        ("args", Json.Obj args);
      ]
  in
  ev :: List.concat_map (events ~epoch) tr.t_children

let flush t =
  match t.kind with
  | Disabled | Memory -> ()
  | Chrome path ->
      let doc =
        Json.Obj
          [
            ( "traceEvents",
              Json.List (List.concat_map (events ~epoch:t.epoch) (roots t)) );
            ("displayTimeUnit", Json.String "ms");
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc
