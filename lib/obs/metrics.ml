(* See metrics.mli.  The registry table is guarded by a mutex (creation
   is rare and lookups return the instrument handle, which callers keep);
   counter/gauge cells are atomics so domains merge increments without
   coordination; each histogram has its own small lock. *)

type counter = { c_name : string; c_help : string; c_cell : int Atomic.t }
type gauge = { g_name : string; g_help : string; g_cell : float Atomic.t }

type histogram = {
  h_name : string;
  h_help : string;
  h_bounds : float array;  (* strictly increasing upper bounds *)
  h_mx : Mutex.t;
  h_counts : int array;  (* per bound, plus the implicit +Inf last *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { mx : Mutex.t; tbl : (string, metric) Hashtbl.t }

let create () = { mx = Mutex.create (); tbl = Hashtbl.create 64 }
let global = create ()

let with_lock t f =
  Mutex.lock t.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mx) f

(* the Prometheus name pattern [a-zA-Z_:][a-zA-Z0-9_:]* *)
let valid_name name =
  name <> ""
  && (match name.[0] with '0' .. '9' -> false | _ -> true)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let get_or_create t name mk classify =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some m -> (
          match classify m with
          | Some x -> x
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered with another type"
                   name))
      | None ->
          if not (valid_name name) then
            invalid_arg
              (Printf.sprintf "Metrics: %S is not a valid metric name" name);
          let m, x = mk () in
          Hashtbl.replace t.tbl name m;
          x)

let counter ?(help = "") t name =
  get_or_create t name
    (fun () ->
      let c = { c_name = name; c_help = help; c_cell = Atomic.make 0 } in
      (Counter c, c))
    (function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_cell by)
let counter_value c = Atomic.get c.c_cell

let gauge ?(help = "") t name =
  get_or_create t name
    (fun () ->
      let g = { g_name = name; g_help = help; g_cell = Atomic.make 0.0 } in
      (Gauge g, g))
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.g_cell v

let add_gauge g d =
  (* CAS loop: adds from racing domains must not be lost *)
  let rec go () =
    let cur = Atomic.get g.g_cell in
    if not (Atomic.compare_and_set g.g_cell cur (cur +. d)) then go ()
  in
  go ()

let gauge_value g = Atomic.get g.g_cell

let default_buckets =
  [ 0.0001; 0.0005; 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0 ]

let histogram ?(help = "") ?(buckets = default_buckets) t name =
  let bounds = Array.of_list (List.sort_uniq compare buckets) in
  get_or_create t name
    (fun () ->
      let h =
        {
          h_name = name;
          h_help = help;
          h_bounds = bounds;
          h_mx = Mutex.create ();
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_sum = 0.0;
          h_count = 0;
        }
      in
      (Histogram h, h))
    (function Histogram h -> Some h | _ -> None)

let observe h v =
  let rec slot i =
    if i >= Array.length h.h_bounds then i
    else if v <= h.h_bounds.(i) then i
    else slot (i + 1)
  in
  let i = slot 0 in
  Mutex.lock h.h_mx;
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  Mutex.unlock h.h_mx

let histogram_count h =
  Mutex.lock h.h_mx;
  let n = h.h_count in
  Mutex.unlock h.h_mx;
  n

let histogram_sum h =
  Mutex.lock h.h_mx;
  let s = h.h_sum in
  Mutex.unlock h.h_mx;
  s

let find t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Counter c) -> `Counter (Atomic.get c.c_cell)
      | Some (Gauge g) -> `Gauge (Atomic.get g.g_cell)
      | Some (Histogram _) | None -> `None)

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

(* every instrument of the distinct registries, sorted by name; the
   sort is stable, so on a shared name the earlier registry's comes
   first and the later ones are dropped *)
let sorted ts =
  let distinct =
    List.fold_left (fun acc t -> if List.memq t acc then acc else t :: acc) [] ts
  in
  let rec dedup = function
    | a :: b :: rest when metric_name a = metric_name b -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  List.rev distinct
  |> List.concat_map (fun t ->
         with_lock t (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []))
  |> List.stable_sort (fun a b -> compare (metric_name a) (metric_name b))
  |> dedup

(* text values: integral floats print without a fraction, others %g *)
let fstr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* the snapshot every view derives from: one entry per instrument,
   keyed by name, help last *)
let to_json ts =
  let module J = Json in
  let entry = function
    | Counter c ->
        ( c.c_name,
          J.Obj
            [
              ("type", J.String "counter");
              ("value", J.Int (Atomic.get c.c_cell));
              ("help", J.String c.c_help);
            ] )
    | Gauge g ->
        ( g.g_name,
          J.Obj
            [
              ("type", J.String "gauge");
              ("value", J.Float (Atomic.get g.g_cell));
              ("help", J.String g.g_help);
            ] )
    | Histogram h ->
        Mutex.lock h.h_mx;
        let buckets =
          Array.to_list
            (Array.mapi
               (fun i bound ->
                 J.Obj [ ("le", J.Float bound); ("n", J.Int h.h_counts.(i)) ])
               h.h_bounds)
        in
        let fields =
          [
            ("type", J.String "histogram");
            ("count", J.Int h.h_count);
            ("sum", J.Float h.h_sum);
            ("buckets", J.List buckets);
            ("help", J.String h.h_help);
          ]
        in
        Mutex.unlock h.h_mx;
        (h.h_name, J.Obj fields)
  in
  J.Obj (List.map entry (sorted ts))

let render json =
  let module J = Json in
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  List.iter
    (fun (name, m) ->
      let kind = J.to_str (J.member "type" m) in
      let help = J.to_str (J.member "help" m) in
      if help <> "" then line "# HELP %s %s" name help;
      line "# TYPE %s %s" name kind;
      match kind with
      | "counter" -> line "%s %d" name (J.to_int (J.member "value" m))
      | "gauge" -> line "%s %s" name (fstr (J.to_float (J.member "value" m)))
      | _ ->
          let count = J.to_int (J.member "count" m) in
          let cum = ref 0 in
          List.iter
            (fun bk ->
              cum := !cum + J.to_int (J.member "n" bk);
              line "%s_bucket{le=\"%s\"} %d" name
                (fstr (J.to_float (J.member "le" bk)))
                !cum)
            (J.to_list (J.member "buckets" m));
          line "%s_bucket{le=\"+Inf\"} %d" name count;
          line "%s_sum %s" name (fstr (J.to_float (J.member "sum" m)));
          line "%s_count %d" name count)
    (match json with J.Obj entries -> entries | _ -> []);
  Buffer.contents b

let dump ts = render (to_json ts)
