(* Tests for the target-parameterized codegen layer: the Cedar backend
   must be byte-identical to the classic printer, and the OpenMP backend
   must lower each Cedar annotation to its directive — which the parser
   then reads back into the Cedar construct, to the same bytes when
   printed again and to a program the checker accepts and the
   interpreter runs like its Cedar source. *)

open Fortran

let cedar = Machine.Config.cedar_config1

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_has text what sub =
  Alcotest.(check bool) (what ^ ": has " ^ sub) true (contains ~sub text)

let check_lacks text what sub =
  Alcotest.(check bool) (what ^ ": no " ^ sub) false (contains ~sub text)

let omp src = Codegen.Openmp.program_to_string (Parser.parse_program src)

(* read the OpenMP text back: it must print to the same bytes, pass the
   static checks the Cedar output faces, and run race-free with the PRINT
   output of the Cedar source [src] *)
let read_ok what src text =
  let prog = Parser.parse_program text in
  Alcotest.(check string) (what ^ ": reprints byte for byte") text
    (Codegen.Openmp.program_to_string prog);
  (match Validate.check_source text with
  | Error m -> Alcotest.fail (what ^ ": text does not parse: " ^ m)
  | Ok [] -> ()
  | Ok issues ->
      Alcotest.fail
        (what ^ ": text rejected: "
        ^ String.concat "; " (List.map Validate.issue_to_string issues)));
  let races, out = Validate.check_dynamic ~cfg:cedar prog in
  Alcotest.(check int) (what ^ ": no races") 0 (List.length races);
  Alcotest.(check string) (what ^ ": output of the Cedar source")
    (snd (Validate.check_dynamic ~cfg:cedar (Parser.parse_program src)))
    out;
  prog

(* every statement of a program, nested ones included *)
let all_stmts (prog : Ast.program) =
  List.concat_map
    (fun u -> Ast_utils.fold_stmts (fun acc s -> s :: acc) [] u.Ast.u_body)
    prog

let the_loop what prog =
  match
    List.filter_map
      (function Ast.Do (h, b) when h.Ast.cls <> Ast.Seq -> Some (h, b) | _ -> None)
      (all_stmts prog)
  with
  | [ l ] -> l
  | ls -> Alcotest.failf "%s: %d parallel loops read back" what (List.length ls)

(* ---------------- Cedar backend = classic printer ---------------- *)

let test_cedar_byte_identity () =
  List.iter
    (fun opts ->
      List.iter
        (fun w ->
          let n = w.Workloads.Workload.small_size in
          let prog =
            Parser.parse_program (w.Workloads.Workload.source n)
          in
          let r = Restructurer.Driver.restructure opts prog in
          Alcotest.(check string)
            (w.Workloads.Workload.name ^ ": cedar target = printer")
            (Printer.program_to_string r.Restructurer.Driver.program)
            (Codegen.Emit.program_to_string ~target:Codegen.Target.Cedar
               r.Restructurer.Driver.program))
        (Service.Traffic.corpus ()))
    [
      Restructurer.Options.auto_1991 cedar;
      Restructurer.Options.advanced cedar;
    ]

(* ---------------- OpenMP lowering, construct by construct -------- *)

let red_src =
  {|      program red
      real a(100)
      real s
      s = 0.0
      cdoall i = 1, 100
        real s_p1
        s_p1 = 0.0
      loop
        s_p1 = s_p1 + a(i)
      endloop
        call lock(1)
        s = s + s_p1
        call unlock(1)
      end cdoall
      print *, s
      end
|}

let test_omp_reduction () =
  let text = omp red_src in
  check_has text "reduction" "!$omp parallel do reduction(+:s)";
  check_lacks text "reduction" "call lock";
  check_lacks text "reduction" "s_p1";
  check_has text "reduction" "s = s + a(i)";
  (* the clause reads back as a fresh partial, its identity init and a
     lock-bracketed merge *)
  let h, b = the_loop "reduction" (read_ok "reduction" red_src text) in
  Alcotest.(check bool) "reduction: a cdoall" true (h.Ast.cls = Ast.Cdoall);
  Alcotest.(check (list string)) "reduction: the partial is the local"
    [ "s_q1" ] (List.map (fun d -> d.Ast.d_name) h.Ast.locals);
  Alcotest.(check bool) "reduction: identity init" true
    (b.Ast.preamble = [ Ast.Assign (Ast.LVar "s_q1", Ast.Num 0.0) ]);
  Alcotest.(check bool) "reduction: merge under lock 1" true
    (b.Ast.postamble
    = [
        Ast.CallSt ("lock", [ Ast.Int 1 ]);
        Ast.Assign (Ast.LVar "s", Ast.Bin (Ast.Add, Ast.Var "s", Ast.Var "s_q1"));
        Ast.CallSt ("unlock", [ Ast.Int 1 ]);
      ])

let fp_src =
  {|      program fp
      real a(100)
      real c
      c = 3.0
      cdoall i = 1, 100
        real t
        real u
        t = c*2.0
      loop
        u = a(i) + t
        a(i) = u*u
      endloop
      end cdoall
      end
|}

let test_omp_private_firstprivate () =
  let text = omp fp_src in
  check_has text "fp" "!$omp parallel do private(u) firstprivate(t)";
  (* the invariant init hoists in front of the directive *)
  check_has text "fp" "t = c*2.0";
  (* loop-locals hoist to unit-level declarations *)
  check_has text "fp" "real t\n";
  check_has text "fp" "real u\n";
  (* the init moves back into the preamble of the loop it feeds *)
  let h, b = the_loop "fp" (read_ok "fp" fp_src text) in
  Alcotest.(check (list string)) "fp: private then firstprivate locals"
    [ "u"; "t" ] (List.map (fun d -> d.Ast.d_name) h.Ast.locals);
  Alcotest.(check bool) "fp: init in the preamble" true
    (b.Ast.preamble
    = [ Ast.Assign (Ast.LVar "t", Ast.Bin (Ast.Mul, Ast.Var "c", Ast.Num 2.0)) ])

let dax_src =
  {|      program dax
      real a(100)
      cdoacross i = 2, 100
        call await(1, 1)
        a(i) = a(i - 1) + 1.0
        call advance(1)
      end cdoacross
      end
|}

let test_omp_doacross () =
  let text = omp dax_src in
  check_has text "doacross" "!$omp parallel do ordered(1)";
  check_has text "doacross" "!$omp ordered depend(sink: i - 1)";
  check_has text "doacross" "!$omp ordered depend(source)";
  check_lacks text "doacross" "call await";
  check_lacks text "doacross" "call advance";
  let h, b = the_loop "doacross" (read_ok "doacross" dax_src text) in
  Alcotest.(check bool) "doacross: a cdoacross" true (h.Ast.cls = Ast.Cdoacross);
  Alcotest.(check bool) "doacross: sink reads as await, source as advance"
    true
    (List.hd b.Ast.body = Ast.CallSt ("await", [ Ast.Int 1; Ast.Int 1 ])
    && List.nth b.Ast.body 2 = Ast.CallSt ("advance", [ Ast.Int 1 ]))

let test_omp_critical () =
  let text =
    omp
      {|      program crit
      real a(100)
      real s
      s = 0.0
      cdoall i = 1, 100
        call lock(2)
        s = s + a(i)
        call unlock(2)
      end cdoall
      end
|}
  in
  check_has text "critical" "!$omp critical (lk2)";
  check_has text "critical" "!$omp end critical (lk2)";
  check_lacks text "critical" "call lock";
  (* the source races by design (shared s under a body-level lock is not
     a shape the checker accepts), so only require the reader to restore
     the calls — not a clean bill of health *)
  let stmts = all_stmts (Parser.parse_program text) in
  Alcotest.(check bool) "critical reads as lock(2)" true
    (List.mem (Ast.CallSt ("lock", [ Ast.Int 2 ])) stmts);
  Alcotest.(check bool) "end critical reads as unlock(2)" true
    (List.mem (Ast.CallSt ("unlock", [ Ast.Int 2 ])) stmts);
  match Validate.check_source text with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("critical: text does not parse: " ^ m)

let test_omp_serial_demotion () =
  (* an array partial has no clause spelling: the loop demotes to a
     serial DO and the now-pointless synchronization drops *)
  let text =
    omp
      {|      program dem
      real a(100)
      real h(8)
      cdoall i = 1, 100
        real hr(8)
        hr(1:8) = 0.0
      loop
        hr(1) = hr(1) + a(i)
      endloop
        call lock(1)
        h(1:8) = h(1:8) + hr(1:8)
        call unlock(1)
      end cdoall
      end
|}
  in
  check_lacks text "demotion" "!$omp";
  check_lacks text "demotion" "call lock";
  check_has text "demotion" "DO i = 1, 100";
  check_has text "demotion" "hr(1:8) = 0.0";
  check_has text "demotion" "h(1:8) = h(1:8) + hr(1:8)"

let test_omp_sync_stripped_when_serial () =
  let text =
    omp
      {|      program ser
      real a(100)
      real s
      do i = 1, 100
        call lock(1)
        s = s + a(i)
        call unlock(1)
      enddo
      end
|}
  in
  (* serial context: nothing to protect, nothing to order *)
  check_lacks text "serial sync" "!$omp";
  check_lacks text "serial sync" "call lock"

let com_src =
  {|      program com
      common /blk/ x, y
      process common /gbl/ u, v
      x = 1.0
      u = 2.0
      end
|}

let test_omp_commons () =
  let text = omp com_src in
  (* task-local Cedar common -> threadprivate; process common (one
     shared copy) is OpenMP's default shared common *)
  check_has text "commons" "common /blk/ x, y";
  check_has text "commons" "!$omp threadprivate(/blk/)";
  check_has text "commons" "common /gbl/ u, v";
  check_lacks text "commons" "threadprivate(/gbl/)";
  check_lacks text "commons" "process common";
  (* the reader restores the process-common distinction from the absence
     of a threadprivate directive *)
  let u = List.hd (read_ok "commons" com_src text) in
  Alcotest.(check (list (pair string bool)))
    "commons: /blk/ task-local, /gbl/ process"
    [ ("blk", false); ("gbl", true) ]
    (List.map (fun cb -> (cb.Ast.c_name, cb.Ast.c_process)) u.Ast.u_commons)

let test_omp_unknown_directive_rejected () =
  match
    Parser.parse_program
      "      program bar\n      x = 1.0\n      !$omp barrier\n      end\n"
  with
  | exception Parser.Error (_, line) ->
      Alcotest.(check int) "the error names the directive's line" 3 line
  | _ -> Alcotest.fail "unknown directive must not parse"

let test_omp_directive_column () =
  (* a directive in column 1 reads the same as an indented one *)
  let text = omp red_src in
  let col1 =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           let t = String.trim l in
           if String.starts_with ~prefix:"!$omp" t then t else l)
    |> String.concat "\n"
  in
  check_has col1 "column 1" "\n!$omp parallel do";
  Alcotest.(check bool) "same program" true
    (Ast.equal_program (Parser.parse_program text) (Parser.parse_program col1))

(* ---------------- corpus round trip ------------------------------ *)

(* every emitted program reads back to a tree that prints the same bytes *)
let test_corpus_reprints () =
  List.iter
    (fun (tlabel, opts) ->
      let opts = { opts with Restructurer.Options.target = Codegen.Target.Openmp } in
      List.iter
        (fun w ->
          let n = w.Workloads.Workload.small_size in
          let prog = Parser.parse_program (w.Workloads.Workload.source n) in
          let r = Restructurer.Driver.restructure opts prog in
          let text = Codegen.Openmp.program_to_string r.Restructurer.Driver.program in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s reprints" w.Workloads.Workload.name tlabel)
            text
            (Codegen.Openmp.program_to_string (Parser.parse_program text)))
        (Service.Traffic.corpus ()))
    [
      ("auto", Restructurer.Options.auto_1991 cedar);
      ("adv", Restructurer.Options.advanced cedar);
    ]

let test_corpus_roundtrip () =
  List.iter
    (fun (tlabel, opts) ->
      (* validate on, like the cedard sweep: the driver demotes loops
         the checker rejects, so what ships is what gets read back *)
      let opts =
        {
          opts with
          Restructurer.Options.target = Codegen.Target.Openmp;
          validate = true;
        }
      in
      List.iter
        (fun w ->
          let n = w.Workloads.Workload.small_size in
          let prog =
            Parser.parse_program (w.Workloads.Workload.source n)
          in
          let r = Restructurer.Driver.restructure opts prog in
          match
            Validate.reverify_target ~target:Codegen.Target.Openmp
              r.Restructurer.Driver.program
          with
          | Ok [] -> ()
          | Ok issues ->
              Alcotest.fail
                (Printf.sprintf "%s/%s: %d rejections: %s"
                   w.Workloads.Workload.name tlabel (List.length issues)
                   (String.concat "; "
                      (List.map Validate.issue_to_string issues)))
          | Error m ->
              Alcotest.fail
                (Printf.sprintf "%s/%s: %s" w.Workloads.Workload.name
                   tlabel m))
        (Service.Traffic.corpus ()))
    [
      ("auto", Restructurer.Options.auto_1991 cedar);
      ("adv", Restructurer.Options.advanced cedar);
    ]

let tests =
  [
    Alcotest.test_case "cedar target is byte-identical to the printer"
      `Quick test_cedar_byte_identity;
    Alcotest.test_case "openmp: recognized reduction lowers to a clause"
      `Quick test_omp_reduction;
    Alcotest.test_case "openmp: private and firstprivate clauses" `Quick
      test_omp_private_firstprivate;
    Alcotest.test_case "openmp: doacross lowers to ordered depend" `Quick
      test_omp_doacross;
    Alcotest.test_case "openmp: lock/unlock lower to named critical"
      `Quick test_omp_critical;
    Alcotest.test_case "openmp: array reduction demotes to serial" `Quick
      test_omp_serial_demotion;
    Alcotest.test_case "openmp: serial-context sync calls drop" `Quick
      test_omp_sync_stripped_when_serial;
    Alcotest.test_case "openmp: commons map to threadprivate/shared"
      `Quick test_omp_commons;
    Alcotest.test_case "openmp: reader rejects unknown directives" `Quick
      test_omp_unknown_directive_rejected;
    Alcotest.test_case "openmp: column-1 directives read like indented ones"
      `Quick test_omp_directive_column;
    Alcotest.test_case "openmp: full corpus reprints byte for byte" `Slow
      test_corpus_reprints;
    Alcotest.test_case
      "openmp: full corpus reads back and passes the static checker"
      `Slow test_corpus_roundtrip;
  ]
