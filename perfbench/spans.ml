(* The benchmark's own spans around calls into each layer.  Spans stay
   in memory; {!write_chrome} writes them out once, at the end.  A
   layer's self time is its span minus the time its child spans cover. *)

type span = {
  name : string;
  req : int;  (** request index the span belongs to *)
  parent : int;  (** id of the enclosing span; -1 at the root *)
  t0 : float;
  mutable t1 : float;
}

type t = { mutable spans : span array; mutable n : int; mutable on : bool }

let create ~on = { spans = [||]; n = 0; on }

let add t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 256 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

(* Run [f id] inside a span named [name]; [id] is the parent to hand to
   nested spans.  With recording off this is a plain call. *)
let with_span t ?(parent = -1) ~req name f =
  if not t.on then f (-1)
  else begin
    let id = add t { name; req; parent; t0 = Util.now (); t1 = 0.0 } in
    Fun.protect ~finally:(fun () -> t.spans.(id).t1 <- Util.now ()) (fun () -> f id)
  end

(* Self time (seconds) of every span named [name]. *)
let self_times t name =
  let covered = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      covered.(s.parent) <- covered.(s.parent) +. (s.t1 -. s.t0)
  done;
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    let s = t.spans.(i) in
    if s.name = name then acc := (s.t1 -. s.t0 -. covered.(i)) :: !acc
  done;
  Array.of_list !acc

(* Chrome trace-event JSON (chrome://tracing, Perfetto). *)
let write_chrome t path =
  let base = if t.n = 0 then 0.0 else t.spans.(0).t0 in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[";
      for i = 0 to t.n - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
           \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
          (if i = 0 then "" else ",")
          s.name
          ((s.t0 -. base) *. 1e6)
          ((s.t1 -. s.t0) *. 1e6)
          i s.parent s.req
      done;
      output_string oc "\n]\n")
