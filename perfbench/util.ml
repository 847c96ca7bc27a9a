(* Small helpers: order statistics, field lookup in the servers' flat
   JSON replies, and the informational code-size count. *)

let now = Unix.gettimeofday

(* Linear-interpolated quantile ([q] in [0,1]) of an unsorted array;
   0 on empty input.  Interpolation keeps a median of a few samples
   from snapping to one sample's value. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile 0.5 xs

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* Position just past the first occurrence of [pat] in [s] at or after
   [from]. *)
let after_sub ?(from = 0) s pat =
  let plen = String.length pat and slen = String.length s in
  let rec find i =
    if i + plen > slen then None
    else if String.sub s i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  find from

(* Position just past the first ["key":] at or after [from]. *)
let json_key_pos ?from body key = after_sub ?from body ("\"" ^ key ^ "\":")

(* The leading run of characters of [s] from [pos] satisfying [ok]. *)
let span_from s pos ok =
  let stop = ref pos in
  while !stop < String.length s && ok s.[!stop] do
    incr stop
  done;
  String.sub s pos (!stop - pos)

(* [json_num body key] — the number in the first ["key":<number>] of
   [body] at or after [from].  The stats, metrics and members replies
   are flat enough that no general parser is needed. *)
let json_num ?from body key =
  match json_key_pos ?from body key with
  | None -> None
  | Some start ->
      float_of_string_opt
        (span_from body start (function
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false))

(* A field of one entry of an {!Obs.Metrics.to_json} dump: ["value"] of
   a counter, ["sum"] or ["count"] of a histogram; 0 when absent. *)
let metric_field body name field =
  match json_key_pos body name with
  | None -> 0.0
  | Some from -> Option.value ~default:0.0 (json_num ~from body field)

(* CPUs online, from the per-CPU lines of /proc/stat (nproc counts only
   those this process may run on); 0 when /proc is unavailable. *)
let online_cpus () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_all with
  | exception Sys_error _ -> 0
  | stat ->
      String.split_on_char '\n' stat
      |> List.filter (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ')
      |> List.length

(* The CPUs this process may run on, from /proc/self/status
   ("Cpus_allowed_list: 0-1,4"); [] when /proc is unavailable. *)
let allowed_cpus () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> []
  | status -> (
      match after_sub status "Cpus_allowed_list:" with
      | None -> []
      | Some p ->
          let p = ref p in
          while !p < String.length status && (status.[!p] = ' ' || status.[!p] = '\t') do
            incr p
          done;
          span_from status !p (fun c -> c <> '\n')
          |> String.split_on_char ','
          |> List.concat_map (fun range ->
                 match
                   List.map int_of_string_opt (String.split_on_char '-' (String.trim range))
                 with
                 | [ Some a ] -> [ a ]
                 | [ Some a; Some b ] when a <= b -> List.init (b - a + 1) (fun k -> a + k)
                 | _ -> []))

(* (steal, total) CPU time of [cpus] so far, in /proc/stat ticks: the
   time the hypervisor kept those vCPUs from running, against all of
   it.  (0, 0) when /proc is unavailable. *)
let cpu_steal cpus =
  match In_channel.with_open_text "/proc/stat" In_channel.input_all with
  | exception Sys_error _ -> (0.0, 0.0)
  | stat ->
      String.split_on_char '\n' stat
      |> List.fold_left
           (fun ((steal_acc, all_acc) as acc) line ->
             match String.split_on_char ' ' line |> List.filter (( <> ) "") with
             | name :: fields
               when String.length name > 3
                    && String.sub name 0 3 = "cpu"
                    && List.mem
                         (int_of_string_opt (String.sub name 3 (String.length name - 3)))
                         (List.map Option.some cpus) -> (
                 match List.filter_map float_of_string_opt fields with
                 | user :: nice :: sys :: idle :: iowait :: irq :: softirq :: steal :: _ ->
                     ( steal_acc +. steal,
                       all_acc +. user +. nice +. sys +. idle +. iowait +. irq +. softirq
                       +. steal )
                 | _ -> acc)
             | _ -> acc)
           (0.0, 0.0)

(* Lines of .ml/.mli/.c under [dirs] (relative to the checkout root). *)
let code_lines dirs =
  let count_file path =
    In_channel.with_open_bin path (fun ic ->
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        !n)
  in
  let wanted f =
    List.exists (Filename.check_suffix f) [ ".ml"; ".mli"; ".c" ]
  in
  let rec walk dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then 0
    else
      Array.fold_left
        (fun acc entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then acc + walk path
          else if wanted entry then acc + count_file path
          else acc)
        0 (Sys.readdir dir)
  in
  List.fold_left (fun acc d -> acc + walk d) 0 dirs
