(* The output oracle, run after the timed window on every distinct reply
   of the fixed list:
   - byte-identical to this process's own restructure of the same
     request with the memo off (whatever path served it: direct, proxy,
     cache or memo hit);
   - Cedar replies PRINT the same as the serial source when both run in
     the interpreter;
   - OpenMP replies pass the validator with no issues. *)

let expected (r : Service.Server.request) =
  let opts = r.req_options in
  Codegen.Emit.program_to_string ~target:opts.Restructurer.Options.target
    (Restructurer.Driver.restructure opts
       (Fortran.Parser.parse_program r.req_source))
      .Restructurer.Driver.program

let run_output cfg text =
  (Interp.Exec.run ~cfg (Fortran.Parser.parse_program text)).Interp.Exec.output

let check_one (r : Service.Server.request) (reply : Net.Wire.reply option) =
  let opts = r.req_options in
  let cfg = opts.Restructurer.Options.machine in
  match reply with
  | None -> Error "never served in the timed window"
  | Some (Net.Wire.R_done d) -> (
      try
        if d.r_text <> expected r then
          Error "reply differs from the in-process memo-off restructure"
        else
          match opts.Restructurer.Options.target with
            | Codegen.Target.Cedar ->
                if run_output cfg d.r_text = run_output cfg r.req_source then Ok ()
                else Error "restructured program prints differently from the serial one"
            | Codegen.Target.Openmp -> (
                match Validate.check_output ~target:Codegen.Target.Openmp d.r_text with
                | Ok [] -> Ok ()
                | Ok issues ->
                    Error
                      ("validator: "
                      ^ String.concat "; " (List.map Validate.issue_to_string issues))
                | Error m -> Error ("validator cannot reparse: " ^ m))
      with e -> Error ("oracle raised " ^ Printexc.to_string e))
  | Some _ -> Error "reply is not a completed result"

(* (slot, reason) for every rejected reply *)
let check (reqs : Service.Server.request array) (replies : Net.Wire.reply option array) =
  List.concat
    (List.init (Array.length reqs) (fun i ->
         match check_one reqs.(i) replies.(i) with
         | Ok () -> []
         | Error why -> [ (i, why) ]))
