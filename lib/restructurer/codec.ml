(* Canonical request bytes and the cedarnet byte primitives.  See
   codec.mli.  Every read goes through a bounds-checked cursor and
   every enum byte is validated, so adversarial input can only end in
   [Truncated] or [Malformed]. *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)
let put_bool b v = put_u8 b (if v then 1 else 0)
let put_int b v = Buffer.add_int64_be b (Int64.of_int v)
let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let put_string b s =
  Buffer.add_int32_be b (Int32.of_int (String.length s));
  Buffer.add_string b s

let put_opt_f64 b = function
  | None -> put_u8 b 0
  | Some v ->
      put_u8 b 1;
      put_f64 b v

exception Truncated
exception Malformed of string

type cursor = { src : Bytes.t; mutable pos : int; limit : int }

let need c n = if n < 0 || c.pos + n > c.limit then raise Truncated

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.src c.pos) in
  c.pos <- c.pos + 1;
  v

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> raise (Malformed (Printf.sprintf "bool byte %d" v))

let get_int c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_be c.src c.pos) in
  c.pos <- c.pos + 8;
  v

let get_f64 c =
  need c 8;
  let v = Int64.float_of_bits (Bytes.get_int64_be c.src c.pos) in
  c.pos <- c.pos + 8;
  v

(* the length of the string at the cursor, its bytes still to read *)
let string_length c =
  need c 4;
  let n = Int32.to_int (Bytes.get_int32_be c.src c.pos) in
  c.pos <- c.pos + 4;
  if n < 0 then raise (Malformed "negative string length");
  need c n;
  n

let get_string c =
  let n = string_length c in
  let s = Bytes.sub_string c.src c.pos n in
  c.pos <- c.pos + n;
  s

let skip_string c = c.pos <- c.pos + string_length c

let get_opt_f64 c =
  match get_u8 c with
  | 0 -> None
  | 1 -> Some (get_f64 c)
  | v -> raise (Malformed (Printf.sprintf "option byte %d" v))

let get_count c what =
  let n = get_int c in
  (* each element consumes at least one byte; anything bigger than the
     remaining payload is a lie, not a huge list *)
  if n < 0 || n > c.limit - c.pos then
    raise (Malformed (Printf.sprintf "implausible %s count %d" what n));
  n

(* A record's layout as one table: each field's wire type, getter and
   functional setter, in byte order.  The encoder, the decoder and the
   structural check walk the same tables, so they cannot drift apart.
   [E (name, n, code, set)] is an enum byte with codes [0, n). *)
type 'r field =
  | B of ('r -> bool) * ('r -> bool -> 'r)
  | I of ('r -> int) * ('r -> int -> 'r)
  | F of ('r -> float) * ('r -> float -> 'r)
  | S of ('r -> string) * ('r -> string -> 'r)
  | E of string * int * ('r -> int) * ('r -> int -> 'r)

let put_fields b fields r =
  List.iter
    (function
      | B (get, _) -> put_bool b (get r)
      | I (get, _) -> put_int b (get r)
      | F (get, _) -> put_f64 b (get r)
      | S (get, _) -> put_string b (get r)
      | E (_, _, code, _) -> put_u8 b (code r))
    fields

let get_enum c name n =
  let v = get_u8 c in
  if v >= n then raise (Malformed (Printf.sprintf "%s byte %d" name v));
  v

let get_fields c fields base =
  List.fold_left
    (fun r -> function
      | B (_, set) -> set r (get_bool c)
      | I (_, set) -> set r (get_int c)
      | F (_, set) -> set r (get_f64 c)
      | S (_, set) -> set r (get_string c)
      | E (name, n, _, set) -> set r (get_enum c name n))
    base fields

let skip_fields c fields =
  List.iter
    (function
      | B _ -> ignore (get_bool c)
      | I _ | F _ ->
          need c 8;
          c.pos <- c.pos + 8
      | S _ -> skip_string c
      | E (name, n, _, _) -> ignore (get_enum c name n))
    fields

(* the 18 technique flags, in declaration order of Options.techniques *)
let technique_fields : Options.techniques field list =
  [
    B ((fun t -> t.scalar_privatization), fun t v -> { t with scalar_privatization = v });
    B ((fun t -> t.scalar_expansion), fun t v -> { t with scalar_expansion = v });
    B ((fun t -> t.simple_induction), fun t v -> { t with simple_induction = v });
    B ((fun t -> t.simple_reduction), fun t v -> { t with simple_reduction = v });
    B ((fun t -> t.doacross), fun t v -> { t with doacross = v });
    B ((fun t -> t.stripmining), fun t v -> { t with stripmining = v });
    B ((fun t -> t.if_to_where), fun t v -> { t with if_to_where = v });
    B ((fun t -> t.inline_expansion), fun t v -> { t with inline_expansion = v });
    B ((fun t -> t.loop_interchange), fun t v -> { t with loop_interchange = v });
    B ((fun t -> t.recurrence_substitution), fun t v -> { t with recurrence_substitution = v });
    B ((fun t -> t.array_privatization), fun t v -> { t with array_privatization = v });
    B ((fun t -> t.generalized_reduction), fun t v -> { t with generalized_reduction = v });
    B ((fun t -> t.giv_substitution), fun t v -> { t with giv_substitution = v });
    B ((fun t -> t.runtime_dep_test), fun t v -> { t with runtime_dep_test = v });
    B ((fun t -> t.critical_sections), fun t v -> { t with critical_sections = v });
    B ((fun t -> t.interprocedural), fun t v -> { t with interprocedural = v });
    B ((fun t -> t.loop_fusion), fun t v -> { t with loop_fusion = v });
    B ((fun t -> t.loop_distribution), fun t v -> { t with loop_distribution = v });
  ]

let machine_fields : Machine.Config.t field list =
  [
    S ((fun m -> m.name), fun m v -> { m with name = v });
    I ((fun m -> m.clusters), fun m v -> { m with clusters = v });
    I ((fun m -> m.ces_per_cluster), fun m v -> { m with ces_per_cluster = v });
    F ((fun m -> m.cache_hit), fun m v -> { m with cache_hit = v });
    F ((fun m -> m.cluster_scalar), fun m v -> { m with cluster_scalar = v });
    F ((fun m -> m.global_scalar), fun m v -> { m with global_scalar = v });
    F ((fun m -> m.cluster_vector), fun m v -> { m with cluster_vector = v });
    F ((fun m -> m.global_vector), fun m v -> { m with global_vector = v });
    F ((fun m -> m.global_vector_prefetched), fun m v -> { m with global_vector_prefetched = v });
    F ((fun m -> m.vector_startup), fun m v -> { m with vector_startup = v });
    I ((fun m -> m.prefetch_depth), fun m v -> { m with prefetch_depth = v });
    B ((fun m -> m.prefetch), fun m v -> { m with prefetch = v });
    I ((fun m -> m.cache_bytes), fun m v -> { m with cache_bytes = v });
    F ((fun m -> m.cdo_startup), fun m v -> { m with cdo_startup = v });
    F ((fun m -> m.cdo_dispatch), fun m v -> { m with cdo_dispatch = v });
    F ((fun m -> m.sdo_startup), fun m v -> { m with sdo_startup = v });
    F ((fun m -> m.sdo_dispatch), fun m v -> { m with sdo_dispatch = v });
    F ((fun m -> m.await_cost), fun m v -> { m with await_cost = v });
    F ((fun m -> m.lock_cost), fun m v -> { m with lock_cost = v });
    F ((fun m -> m.task_start_ctsk), fun m v -> { m with task_start_ctsk = v });
    F ((fun m -> m.task_start_mtsk), fun m v -> { m with task_start_mtsk = v });
    F ((fun m -> m.scalar_op), fun m v -> { m with scalar_op = v });
    F ((fun m -> m.vector_op), fun m v -> { m with vector_op = v });
    F ((fun m -> m.intrinsic_op), fun m v -> { m with intrinsic_op = v });
    I ((fun m -> m.cluster_mem_bytes), fun m v -> { m with cluster_mem_bytes = v });
    I ((fun m -> m.global_mem_bytes), fun m v -> { m with global_mem_bytes = v });
    I ((fun m -> m.page_bytes), fun m v -> { m with page_bytes = v });
    F ((fun m -> m.page_fault_cycles), fun m v -> { m with page_fault_cycles = v });
    F ((fun m -> m.global_bw), fun m v -> { m with global_bw = v });
    F ((fun m -> m.cluster_bw), fun m v -> { m with cluster_bw = v });
  ]

(* the remaining fields of Options.t, the target byte last *)
let option_fields : Options.t field list =
  let open Options in
  let limits o = o.inline_limits in
  [
    I ((fun o -> o.max_versions), fun o v -> { o with max_versions = v });
    I ((fun o -> o.strip), fun o v -> { o with strip = v });
    I ((fun o -> (limits o).max_depth),
       fun o v -> { o with inline_limits = { (limits o) with max_depth = v } });
    I ((fun o -> (limits o).max_stmts),
       fun o v -> { o with inline_limits = { (limits o) with max_stmts = v } });
    E ("placement", 2,
       (fun o -> match o.placement_default with
          | Transform.Globalize.Default_global -> 0
          | Transform.Globalize.Default_cluster -> 1),
       fun o v -> { o with placement_default =
                             (if v = 0 then Transform.Globalize.Default_global
                              else Transform.Globalize.Default_cluster) });
    I ((fun o -> o.assumed_trip), fun o v -> { o with assumed_trip = v });
    B ((fun o -> o.validate), fun o v -> { o with validate = v });
    E ("target", List.length Codegen.Target.all,
       (fun o -> Codegen.Target.code o.target),
       fun o v -> { o with target = Option.get (Codegen.Target.of_code v) });
  ]

let put_content b ~source (o : Options.t) =
  put_string b source;
  put_fields b technique_fields o.techniques;
  put_fields b machine_fields o.machine;
  put_fields b option_fields o

let get_content c =
  let source = get_string c in
  let techniques = get_fields c technique_fields Options.base_techniques in
  let machine = get_fields c machine_fields Machine.Config.cedar_config1 in
  (source, get_fields c option_fields (Options.make ~techniques machine))

let skip_content c =
  skip_string c;
  skip_fields c technique_fields;
  skip_fields c machine_fields;
  skip_fields c option_fields

let content_key ~source o =
  let b = Buffer.create (String.length source + 512) in
  put_content b ~source o;
  Digest.to_hex (Digest.string (Buffer.contents b))
