(** OpenMP backend: lowers the restructurer's Cedar loop annotations to
    standard Fortran with OpenMP directives.

    Mapping (see README "Targets"):
    - CDOALL/SDOALL/XDOALL with no residual preamble/postamble lower to
      [!$omp parallel do] with [private(...)] for loop-locals and
      [firstprivate(...)] for locals initialized to loop-invariant values
      in the preamble (the init hoists in front of the directive).
    - Scalar reductions recognized by {!Transform.Reduction_par.recognize}
      lower to [reduction(op:var)] clauses; the partial-accumulator
      machinery is stripped and the body accumulates into the shared name.
    - CDOACROSS lowers to [!$omp parallel do ordered(1)]; [call await(c,d)]
      becomes [!$omp ordered depend(sink: i - d)] and [call advance(c)]
      becomes [!$omp ordered depend(source)].
    - [call lock(k)] / [call unlock(k)] inside a parallel region become
      [!$omp critical (lkk)] / [!$omp end critical (lkk)]; in serial
      context they are dropped (nothing to protect).
    - Loops whose preamble/postamble cannot be expressed as clauses
      (array reductions, residual block structure) demote to serial DO
      loops: preamble, loop, postamble emitted in sequence, with the
      synchronization calls stripped.
    - Loop-local declarations hoist to unit level (names are fresh per
      restructuring run, so hoisting cannot collide).
    - Cedar [process common] (one copy in global memory) is exactly an
      OpenMP common block, so it prints as plain [common]; a task-local
      plain Cedar [common] gets [!$omp threadprivate(/blk/)] when named.
      GLOBAL/CLUSTER visibility lines are dropped (shared memory).

    This module only prints.  {!Fortran.Parser} reads the output back,
    each directive into the Cedar construct it was lowered from, so the
    validator checks and the interpreter runs exactly the text emitted
    here; printing the parsed text again gives the same bytes. *)

open Fortran
open Ast
module R = Transform.Reduction_par
module U = Ast_utils
module E = Fortran.Emit

let expr_str = E.expr_str
let lhs_str = E.lhs_str
let decl_line = E.decl_line
let emit_line = E.emit_line
let dir buf indent text = emit_line buf indent ("!$omp " ^ text)

type ctx = {
  in_par : bool;  (** inside some enclosing parallel region *)
  ordered : string option;  (** innermost ordered doacross index *)
  hoist : decl list ref;  (** loop-locals hoisted to unit level *)
}

(* indices of sequential DO loops nested in [stmts]; each thread of an
   enclosing parallel loop needs its own copy *)
let rec seq_indices acc stmts =
  List.fold_left
    (fun acc st ->
      match st with
      | Do (h, b) when h.cls = Seq ->
          let acc = h.index :: acc in
          seq_indices (seq_indices (seq_indices acc b.preamble) b.body) b.postamble
      | Do (_, _) -> acc (* nested parallel loops carry their own directive *)
      | If (_, t, e) -> seq_indices (seq_indices acc t) e
      | Where (_, b) -> seq_indices acc b
      | Labeled (_, s) -> seq_indices acc [ s ]
      | _ -> acc)
    acc stmts

let rec dedup = function
  | [] -> []
  | x :: rest -> if List.mem x rest then dedup rest else x :: dedup rest

(* When the whole preamble is [local = loop-invariant-expr] inits, each
   becomes a hoisted assignment plus a firstprivate clause. *)
let fp_split index (locals : decl list) preamble =
  let lnames = List.map (fun d -> d.d_name) locals in
  let rec go fps = function
    | [] -> Some (List.rev fps)
    | Assign (LVar p, e) :: rest
      when List.mem p lnames
           && (not (List.mem_assoc p fps))
           &&
           let vs = U.expr_vars e in
           (not (U.SSet.mem index vs))
           && not (List.exists (fun l -> U.SSet.mem l vs) lnames) ->
        go ((p, e) :: fps) rest
    | _ -> None
  in
  go [] preamble

let critical_name args =
  match args with [ Int k ] -> Printf.sprintf " (lk%d)" k | _ -> ""

let do_line h =
  let step = match h.step with None -> "" | Some s -> ", " ^ expr_str s in
  Printf.sprintf "DO %s = %s, %s%s" h.index (expr_str h.lo) (expr_str h.hi) step

let mapped_call = [ "lock"; "unlock"; "await"; "advance" ]

let rec emit_stmt ctx buf indent = function
  | Assign (l, e) -> emit_line buf indent (lhs_str l ^ " = " ^ expr_str e)
  | If (c, [ s ], [])
    when match s with
         | Assign _ | Goto _ | Return | Stop -> true
         | CallSt (n, _) -> not (List.mem n mapped_call)
         | _ -> false ->
      let inner = Buffer.create 64 in
      emit_stmt ctx inner 0 s;
      let text = String.trim (Buffer.contents inner) in
      emit_line buf indent (Printf.sprintf "if (%s) %s" (expr_str c) text)
  | If (c, t, e) ->
      emit_line buf indent (Printf.sprintf "if (%s) then" (expr_str c));
      List.iter (emit_stmt ctx buf (indent + 1)) t;
      if e <> [] then begin
        emit_line buf indent "else";
        List.iter (emit_stmt ctx buf (indent + 1)) e
      end;
      emit_line buf indent "endif"
  | Where (m, body) ->
      emit_line buf indent (Printf.sprintf "where (%s)" (expr_str m));
      List.iter (emit_stmt ctx buf (indent + 1)) body;
      emit_line buf indent "endwhere"
  | Do (hdr, blk) when hdr.cls = Seq ->
      emit_line buf indent (do_line hdr);
      List.iter (emit_stmt ctx buf (indent + 1)) blk.body;
      emit_line buf indent "enddo"
  | Do (hdr, blk) -> emit_parallel ctx buf indent hdr blk
  | CallSt ("lock", args) ->
      if ctx.in_par then dir buf indent ("critical" ^ critical_name args)
  | CallSt ("unlock", args) ->
      if ctx.in_par then dir buf indent ("end critical" ^ critical_name args)
  | CallSt ("await", [ _; d ]) -> (
      match ctx.ordered with
      | Some i ->
          dir buf indent
            (Printf.sprintf "ordered depend(sink: %s - %s)" i (expr_str d))
      | None -> ())
  | CallSt ("advance", _) -> (
      match ctx.ordered with
      | Some _ -> dir buf indent "ordered depend(source)"
      | None -> ())
  | CallSt (n, []) -> emit_line buf indent ("call " ^ n)
  | CallSt (n, args) ->
      emit_line buf indent
        (Printf.sprintf "call %s(%s)" n
           (String.concat ", " (List.map expr_str args)))
  | Return -> emit_line buf indent "return"
  | Stop -> emit_line buf indent "stop"
  | Continue -> emit_line buf indent "continue"
  | Goto n -> emit_line buf indent (Printf.sprintf "goto %d" n)
  | Labeled (l, s) ->
      let inner = Buffer.create 64 in
      emit_stmt ctx inner indent s;
      let text = Buffer.contents inner in
      let lbl = Printf.sprintf "%4d" l in
      if String.length text > 4 then
        Buffer.add_string buf (lbl ^ String.sub text 4 (String.length text - 4))
      else Buffer.add_string buf text
  | Print [] -> emit_line buf indent "print *"
  | Print args ->
      emit_line buf indent
        ("print *, " ^ String.concat ", " (List.map expr_str args))
  | Read ls ->
      emit_line buf indent
        ("read *, " ^ String.concat ", " (List.map lhs_str ls))

and emit_parallel ctx buf indent h blk =
  let reds, h', blk' =
    match R.recognize h blk with
    | Some (r, h2, b2) -> (r, h2, b2)
    | None -> ([], h, blk)
  in
  let fp =
    if blk'.postamble = [] then fp_split h'.index h'.locals blk'.preamble
    else None
  in
  match fp with
  | Some fps ->
      (* clean clause lowering *)
      ctx.hoist := !(ctx.hoist) @ h'.locals;
      let fp_names = List.map fst fps in
      let privates =
        List.filter_map
          (fun d ->
            if List.mem d.d_name fp_names then None else Some d.d_name)
          h'.locals
        @ seq_indices [] blk'.body
        |> dedup
        |> List.filter (fun v -> v <> h'.index)
      in
      List.iter
        (fun (p, e) -> emit_line buf indent (p ^ " = " ^ expr_str e))
        fps;
      let is_dax = is_doacross h.cls in
      let clauses =
        (if is_dax then [ "ordered(1)" ] else [])
        @ List.map
            (fun r ->
              Printf.sprintf "reduction(%s:%s)" (Reduction.op_clause r.R.rr_op)
                r.R.rr_shared)
            reds
        @ (if privates = [] then []
           else [ "private(" ^ String.concat ", " privates ^ ")" ])
        @
        if fp_names = [] then []
        else [ "firstprivate(" ^ String.concat ", " fp_names ^ ")" ]
      in
      dir buf indent (String.concat " " ("parallel do" :: clauses));
      emit_line buf indent (do_line h');
      let bctx =
        {
          ctx with
          in_par = true;
          ordered = (if is_dax then Some h'.index else None);
        }
      in
      List.iter (emit_stmt bctx buf (indent + 1)) blk'.body;
      emit_line buf indent "enddo";
      dir buf indent "end parallel do"
  | None ->
      (* serial demotion of the original loop: preamble, plain DO,
         postamble; synchronization calls drop with the parallelism *)
      ctx.hoist := !(ctx.hoist) @ h.locals;
      List.iter (emit_stmt ctx buf indent) blk.preamble;
      emit_line buf indent (do_line h);
      List.iter (emit_stmt ctx buf (indent + 1)) blk.body;
      emit_line buf indent "enddo";
      List.iter (emit_stmt ctx buf indent) blk.postamble

let emit_unit buf (u : punit) =
  (match u.u_kind with
  | Program -> emit_line buf 0 ("program " ^ u.u_name)
  | Subroutine ps ->
      emit_line buf 0
        (Printf.sprintf "subroutine %s(%s)" u.u_name (String.concat ", " ps))
  | Function (ty, ps) ->
      emit_line buf 0
        (Printf.sprintf "%s function %s(%s)" (E.dtype_str ty) u.u_name
           (String.concat ", " ps)));
  List.iter
    (fun (n, e) ->
      emit_line buf 1 (Printf.sprintf "parameter (%s = %s)" n (expr_str e)))
    u.u_params;
  (* body first: lowering decides which loop-locals hoist to unit level *)
  let bodybuf = Buffer.create 1024 in
  let ctx = { in_par = false; ordered = None; hoist = ref [] } in
  List.iter (emit_stmt ctx bodybuf 1) u.u_body;
  let declared = List.map (fun d -> d.d_name) u.u_decls in
  let hoisted =
    List.filter (fun d -> not (List.mem d.d_name declared)) !(ctx.hoist)
    |> dedup
  in
  (* every declaration prints with its type; visibility lines drop *)
  List.iter (fun d -> emit_line buf 1 (decl_line d)) u.u_decls;
  List.iter (fun d -> emit_line buf 1 (decl_line d)) hoisted;
  List.iter
    (fun cb ->
      let blk = if cb.c_name = "" then "" else "/" ^ cb.c_name ^ "/ " in
      emit_line buf 1 ("common " ^ blk ^ String.concat ", " cb.c_vars);
      if (not cb.c_process) && cb.c_name <> "" then
        dir buf 1 (Printf.sprintf "threadprivate(/%s/)" cb.c_name))
    u.u_commons;
  List.iter
    (fun group ->
      List.iter
        (fun (a, b) ->
          emit_line buf 1 (Printf.sprintf "equivalence (%s, %s)" a b))
        group)
    u.u_equivs;
  Buffer.add_buffer buf bodybuf;
  emit_line buf 0 "end"

let program_to_string (p : program) =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i u ->
      if i > 0 then Buffer.add_char buf '\n';
      emit_unit buf u)
    p;
  Buffer.contents buf

let unit_to_string u =
  let buf = Buffer.create 1024 in
  emit_unit buf u;
  Buffer.contents buf
