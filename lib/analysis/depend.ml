(** Array data-dependence testing for one loop.

    Implements the classic subscript tests — ZIV, strong/weak SIV, the GCD
    test and Banerjee-style bound checking — on affine subscript forms, per
    dimension, combined conservatively.  Symbolic terms that do not cancel
    make the tester assume a dependence and record why; the run-time
    dependence test transformation keys off that reason, exactly as the
    paper describes for OCEAN's linearized subscripts. *)

open Fortran
module SMap = Ast_utils.SMap

type kind = Flow | Anti | Output [@@deriving show { with_path = false }, eq]

type distance =
  | Dist of int  (** definite iteration distance (source to sink) *)
  | Star  (** unknown direction / distance *)
[@@deriving show { with_path = false }, eq]

type reason =
  | Affine  (** decided by the affine tests *)
  | Non_affine  (** a subscript was not affine *)
  | Symbolic of string  (** symbolic terms did not cancel (variable name) *)
  | Scalar  (** a scalar memory cell is reused across iterations *)
[@@deriving show { with_path = false }, eq]

type dep = {
  d_array : string;
  d_kind : kind;
  d_src : int list;  (** statement path of the source reference *)
  d_dst : int list;
  d_carried : bool;  (** carried by the tested loop *)
  d_distance : distance;
  d_reason : reason;
}
[@@deriving show { with_path = false }]

(* ------------------------------------------------------------------ *)
(* Single-dimension test                                               *)
(* ------------------------------------------------------------------ *)

(** Which test proved a dimension (or pair) independent — exported to the
    metrics registry so a corpus run shows where the analysis earns its
    keep (cf. the paper's per-technique accounting in Tables 1–2). *)
type indep_proof =
  | P_ziv  (** constant subscripts differ *)
  | P_gcd  (** GCD test: the dependence equation has no integer solution *)
  | P_siv  (** strong SIV: non-integral or out-of-range distance *)
  | P_trip  (** Banerjee-style bound: distance exceeds the trip count *)
  | P_disequal  (** a guard/bound disequality separates the cells *)
  | P_distance  (** two dimensions demand conflicting distances *)

let proof_name = function
  | P_ziv -> "ziv"
  | P_gcd -> "gcd"
  | P_siv -> "siv"
  | P_trip -> "trip"
  | P_disequal -> "disequal"
  | P_distance -> "distance"

let all_proofs = [ P_ziv; P_gcd; P_siv; P_trip; P_disequal; P_distance ]

(* registered once; incremented in one batch per [dependences] call so
   the quadratic pair scan never touches a shared cache line per pair *)
let pairs_counter =
  Obs.Metrics.counter Obs.Metrics.global
    ~help:"reference pairs run through the subscript tests"
    "depend_pairs_tested_total"

let deps_counter =
  Obs.Metrics.counter Obs.Metrics.global
    ~help:"pairs where a dependence was assumed or proven"
    "depend_deps_found_total"

let proof_counter p =
  Obs.Metrics.counter Obs.Metrics.global
    ~help:"pairs proven independent, by deciding test"
    (Printf.sprintf "depend_indep_%s_total" (proof_name p))

let proof_counters = List.map (fun p -> (p, proof_counter p)) all_proofs

(** Feasible set of iteration distances d = i(sink) - i(source) allowed by
    one subscript dimension: empty, a singleton, or all of Z. *)
type dim_result =
  | Independent of indep_proof
      (** empty: this dimension proves there is no dependence *)
  | Distance of int  (** satisfied exactly at this iteration distance *)
  | Any  (** satisfiable at any distance (no constraint on tested index) *)
  | Unknown of reason  (** treated as Any, with a diagnosis *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Test one subscript dimension.
    [index] is the tested loop's index; [inner] are indices of loops nested
    inside it (free to differ between the two references); [trip] is the
    tested loop's constant trip count when known (enables Banerjee-style
    bounding of the distance). *)
let test_dim ~index ~inner ~trip (s1 : Affine.t) (s2 : Affine.t) : dim_result =
  let a1 = Affine.coeff index s1 and a2 = Affine.coeff index s2 in
  (* split off inner-index terms *)
  let inner1, rest1 = Affine.split inner s1 in
  let inner2, rest2 = Affine.split inner s2 in
  let rest1 = Affine.sub rest1 (Affine.scale a1 (Affine.var index)) in
  let rest2 = Affine.sub rest2 (Affine.scale a2 (Affine.var index)) in
  (* symbolic parts beyond the tested index must cancel *)
  let diff = Affine.sub rest1 rest2 in
  let symbolic_leftover =
    List.filter (fun v -> v <> index) (Affine.vars diff)
  in
  match symbolic_leftover with
  | v :: _ -> Unknown (Symbolic v)
  | [] -> (
      let c = diff.Affine.const in
      (* equation: a1*i1 - a2*i2 + (inner terms) + c = 0 *)
      let inner_coeffs =
        List.map (fun v -> Affine.coeff v inner1) (Affine.vars inner1)
        @ List.map (fun v -> Affine.coeff v inner2) (Affine.vars inner2)
      in
      if a1 = 0 && a2 = 0 && inner_coeffs = [] then
        (* ZIV: the cell does not depend on the tested index, so equal
           constants conflict at every iteration distance *)
        if c = 0 then Any else Independent P_ziv
      else if inner_coeffs <> [] then begin
        (* coupled with inner indices: GCD feasibility only *)
        let g =
          List.fold_left gcd (gcd a1 a2) inner_coeffs
        in
        if g <> 0 && c mod g <> 0 then Independent P_gcd else Any
      end
      else if a1 = a2 then
        (* strong SIV: a*i1 + c = a*i2  =>  d = i2 - i1 = c/a *)
        let a = a1 in
        if a = 0 then if c = 0 then Any else Independent P_ziv
        else if c mod a <> 0 then Independent P_siv
        else
          let d = c / a in
          let out_of_range =
            match trip with Some t -> abs d >= t | None -> false
          in
          if out_of_range then Independent P_trip else Distance d
      else
        (* weak SIV / MIV in the tested index: GCD then give up on
           direction *)
        let g = gcd a1 a2 in
        if g <> 0 && c mod g <> 0 then Independent P_gcd else Unknown Affine)

(* ------------------------------------------------------------------ *)
(* Reference-pair test                                                 *)
(* ------------------------------------------------------------------ *)

(* Intersection of the per-dimension feasible distance sets. *)
let combine_dims results =
  let rec go acc = function
    | [] -> acc
    | (Independent _ as r) :: _ -> r
    | r :: rest -> (
        match (acc, r) with
        | (Independent _ as x), _ | _, (Independent _ as x) -> x
        | Any, x -> go x rest
        | Unknown r0, (Any | Unknown _) -> go (Unknown r0) rest
        | Unknown _, Distance d -> go (Distance d) rest
        | Distance d, (Any | Unknown _) -> go (Distance d) rest
        | Distance d1, Distance d2 ->
            if d1 = d2 then go (Distance d1) rest
            else Independent P_distance)
  in
  go Any results

(** Outcome of testing one reference pair, keeping the deciding proof when
    the pair is shown independent (for the metrics flush in
    [dependences]). *)
type pair_verdict =
  | V_skip  (** different arrays: never a candidate pair *)
  | V_indep of indep_proof
  | V_dep of bool * distance * reason

(** Does a dependence exist between two references, and is it carried by
    the tested loop?  [env] substitutes recognized induction variables by
    their affine closed forms before testing.  [injective] names scalars
    known to take a distinct value in every iteration of the loop nest
    (strictly monotonic generalized induction variables): a dimension
    subscripted by exactly such a variable on both sides can only conflict
    within one iteration. *)
let test_pair_v ?(injective = Ast_utils.SSet.empty) ?(disequal = [])
    ?(invariant = fun _ -> false) ~env ~index ~inner ~trip
    (r1 : Loops.ref_info) (r2 : Loops.ref_info) : pair_verdict =
  if r1.r_array <> r2.r_array then V_skip
  else if List.length r1.r_subs <> List.length r2.r_subs then
    (* reshaped access: give up *)
    V_dep (true, Star, Non_affine)
  else
    let dim_override s1 s2 =
      match (s1, s2) with
      | Ast.Var v1, Ast.Var v2 when v1 = v2 && Ast_utils.SSet.mem v1 injective
        ->
          Some (Distance 0)
      | s1, s2
        when Ast.equal_expr s1 s2
             && (match Ast_utils.index_coeff index s1 with
                | Some c when c <> 0 ->
                    (* structurally identical, moving linearly with the
                       tested index, every other variable invariant (and
                       not an inner loop index): the two references only
                       meet in the same iteration *)
                    Ast_utils.SSet.for_all
                      (fun v ->
                        v = index
                        || (invariant v && not (List.mem v inner)))
                      (Ast_utils.expr_vars s1)
                | _ -> false) ->
          Some (Distance 0)
      | Ast.Var v1, Ast.Var v2
        when v1 <> v2
             && (List.mem (v1, v2) disequal || List.mem (v2, v1) disequal) ->
          (* a known disequality (from an enclosing IF guard or from the
             loop bounds, e.g. DO j = k+1, n  =>  j <> k) separates the
             cells in this dimension *)
          Some (Independent P_disequal)
      | _ -> None
    in
    let affs1 = List.map (Affine.of_expr ~env) r1.r_subs in
    let affs2 = List.map (Affine.of_expr ~env) r2.r_subs in
    let overrides = List.map2 dim_override r1.r_subs r2.r_subs in
    if
      List.exists2
        (fun a o -> Option.is_none a && Option.is_none o)
        affs1 overrides
      || List.exists2
           (fun a o -> Option.is_none a && Option.is_none o)
           affs2 overrides
    then V_dep (true, Star, Non_affine)
    else
      let dims =
        List.map2
          (fun (a, b) o ->
            match o with
            | Some r -> r
            | None ->
                test_dim ~index ~inner ~trip (Option.get a) (Option.get b))
          (List.combine affs1 affs2)
          overrides
      in
      match combine_dims dims with
      | Independent p -> V_indep p
      | Distance 0 -> V_dep (false, Dist 0, Affine)
      | Distance d -> V_dep (true, Dist d, Affine)
      | Any -> V_dep (true, Star, Affine)
      | Unknown r -> V_dep (true, Star, r)

let kind_of (a : Loops.ref_info) (b : Loops.ref_info) =
  match (a.r_access, b.r_access) with
  | Write, Read -> Some Flow
  | Read, Write -> Some Anti
  | Write, Write -> Some Output
  | Read, Read -> None

(** All dependences among the given references with respect to the tested
    loop.  For pairs with a definite distance the source is oriented to the
    earlier iteration; for unknown distances both orientations are
    reported once as [Star]. *)
let dependences ?(injective = Ast_utils.SSet.empty) ?(disequal = [])
    ?(invariant = fun _ -> false) ~env ~index ~inner ~trip
    (refs : Loops.ref_info list) : dep list =
  let deps = ref [] in
  (* tallied locally and flushed to the registry once per call: the pair
     scan is quadratic and runs on every worker domain, so per-pair
     shared-cacheline atomics would contend *)
  let pairs_tested = ref 0 and deps_found = ref 0 in
  let indep_tallies = List.map (fun (p, c) -> (p, ref 0, c)) proof_counters in
  let note_indep p =
    List.iter (fun (q, r, _) -> if q = p then incr r) indep_tallies
  in
  let n = List.length refs in
  let arr = Array.of_list refs in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      (* quadratic in the reference count: poll the fuel hook so a huge
         nest cannot hold a worker domain past its deadline *)
      Fuel.tick ();
      if i <> j || arr.(i).Loops.r_access = Loops.Write then begin
        let a = arr.(i) and b = arr.(j) in
        (* consider each unordered pair once, plus self-pairs of writes *)
        if i <= j then
          match kind_of a b with
          | None -> ()
          | Some _ -> (
              match
                test_pair_v ~injective ~disequal ~invariant ~env ~index
                  ~inner ~trip a b
              with
              | V_skip -> ()
              | V_indep p ->
                  incr pairs_tested;
                  note_indep p
              | V_dep (false, Dist 0, _) when i = j ->
                  (* a reference trivially "depends" on itself in the same
                     iteration: not a dependence *)
                  incr pairs_tested
              | V_dep (carried, dist, reason) ->
                  incr pairs_tested;
                  incr deps_found;
                  let src, dst, dist =
                    match dist with
                    | Dist d when d < 0 -> (b, a, Dist (-d))
                    | d -> (a, b, d)
                  in
                  (* orient kind with the chosen source *)
                  let kind =
                    match kind_of src dst with
                    | Some k -> k
                    | None -> assert false
                  in
                  (* a loop-independent dep whose source does not precede
                     its sink lexically is really carried: within one
                     iteration the source must come first *)
                  let carried, dist =
                    if
                      (not carried)
                      && (not (Loops.path_before src.Loops.r_path dst.Loops.r_path))
                      && src.Loops.r_path <> dst.Loops.r_path
                    then (true, Star)
                    else (carried, dist)
                  in
                  deps :=
                    {
                      d_array = a.Loops.r_array;
                      d_kind = kind;
                      d_src = src.Loops.r_path;
                      d_dst = dst.Loops.r_path;
                      d_carried = carried;
                      d_distance = dist;
                      d_reason = reason;
                    }
                    :: !deps)
      end
    done
  done;
  if !pairs_tested > 0 then Obs.Metrics.incr ~by:!pairs_tested pairs_counter;
  if !deps_found > 0 then Obs.Metrics.incr ~by:!deps_found deps_counter;
  List.iter
    (fun (_, r, c) -> if !r > 0 then Obs.Metrics.incr ~by:!r c)
    indep_tallies;
  List.rev !deps

(** Dependences that prevent running the tested loop as a DOALL. *)
let carried (deps : dep list) = List.filter (fun d -> d.d_carried) deps

(** Summarize the reasons blocking parallelization (for reporting and for
    the run-time-test transformation). *)
