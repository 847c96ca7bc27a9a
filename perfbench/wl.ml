(* The three workloads and the inputs each draws from its seed.  The
   servers only ever see the generated sources. *)

type kind = Corpus_shared | Corpus_novel | Hot_proxy

type t = {
  kind : kind;
  name : string;
  target : Codegen.Target.t;
  validate : bool;
  size_jitter : int;
  batch : int;  (** corpus sources concatenated per request *)
  rss_after : int;
      (** timed replies after which [server_rss_mb] is read; a 15 s
          window at half the usual rate on a 2-vCPU host still gets there *)
  one_cpu : bool;
      (** run the benchmark and its servers on one CPU: see NOTES.md,
          "Steadiness" *)
}

let all =
  [
    {
      kind = Corpus_shared;
      name = "corpus-shared";
      target = Codegen.Target.Cedar;
      validate = false;
      size_jitter = 0;
      batch = 4;
      rss_after = 4096;
      one_cpu = false;
    };
    {
      kind = Corpus_novel;
      name = "corpus-novel";
      target = Codegen.Target.Openmp;
      validate = true;
      size_jitter = 64;
      batch = 4;
      rss_after = 2048;
      one_cpu = false;
    };
    {
      kind = Hot_proxy;
      name = "hot-proxy";
      target = Codegen.Target.Cedar;
      validate = false;
      size_jitter = 0;
      batch = 1;
      rss_after = 32768;
      one_cpu = true;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let nth w ~seed i =
  Service.Traffic.nth_request ~validate:w.validate ~target:w.target ~seed
    ~size_jitter:w.size_jitter ~batch:w.batch i

(* Every distinct single-source request at size jitter 0: each corpus
   program under both technique sets on both machines (88 today), in
   name order.  The set does not depend on the seed. *)
let hot_keys w =
  let want = 4 * List.length (Service.Traffic.corpus ()) in
  let seen = Hashtbl.create 128 in
  let i = ref 0 in
  while Hashtbl.length seen < want && !i < 100_000 do
    let r = nth w ~seed:0 !i in
    Hashtbl.replace seen r.Service.Server.req_name r;
    incr i
  done;
  Hashtbl.fold (fun _ r acc -> r :: acc) seen []
  |> List.sort (fun a b ->
         compare a.Service.Server.req_name b.Service.Server.req_name)
  |> Array.of_list

(* The warm-up stream seed: disjoint from the timed stream's [seed]
   (request keys may still collide by chance, at a rate far below the
   shape check's 0.01 cache-hit ceiling). *)
let warm_seed seed = seed + 1_000_003

(* On corpus-*, the first this-many timed requests form the fixed list
   of distinct requests that the oracle and the traced replay cover. *)
let corpus_fixed = 96

type inputs = {
  fixed_list : Service.Server.request array;
      (** corpus: the first [corpus_fixed] timed requests; hot-proxy: the keys *)
  request : int -> Service.Server.request * int;
      (** the [i]-th timed request and its slot in [fixed_list], or -1 *)
  warmup : Service.Server.request array;  (** sent during set-up *)
}

let inputs w ~seed =
  match w.kind with
  | Corpus_shared | Corpus_novel ->
      let fixed_list = Array.init corpus_fixed (nth w ~seed) in
      let request i =
        if i < corpus_fixed then (fixed_list.(i), i) else (nth w ~seed i, -1)
      in
      (* corpus-shared: enough to cover the corpus's nests under both
         technique sets and machines, so the memo is warm; corpus-novel:
         enough to fill the memo, so the window sees it evicting *)
      let warmup =
        Array.init
          (if w.kind = Corpus_shared then 192 else 64)
          (nth w ~seed:(warm_seed seed))
      in
      { fixed_list; request; warmup }
  | Hot_proxy ->
      let keys = hot_keys w in
      let n = Array.length keys in
      let request i =
        let k = Random.State.int (Random.State.make [| seed; i |]) n in
        (keys.(k), k)
      in
      { fixed_list = keys; request; warmup = keys }

(* Digest of a request list: names, sources and the full options record.
   A change to [lib/workloads] or [Service.Traffic.nth_request] changes
   it, and then the workload is a different workload. *)
let fingerprint reqs =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (r : Service.Server.request) ->
      Buffer.add_string b r.req_name;
      Buffer.add_char b '\000';
      Buffer.add_string b (Digest.string r.req_source);
      Buffer.add_string b
        (Digest.string (Marshal.to_string r.req_options [ Marshal.No_sharing ])))
    reqs;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12

(* The fingerprint of a seed's inputs: the fixed list plus the first 256
   timed requests.  BENCHMARK.json records it for the reference seed 0. *)
let inputs_fingerprint inp =
  fingerprint
    (Array.append inp.fixed_list (Array.init 256 (fun i -> fst (inp.request i))))
