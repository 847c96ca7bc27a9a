(* DES core, synchronization and microtasking tests. *)

open Machine

let test_heap () =
  let h = Heap.create () in
  List.iter (fun t -> Heap.push h ~time:t t) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !order)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:1.0 v) [ 1; 2; 3 ];
  let a = Heap.pop h and b = Heap.pop h and c = Heap.pop h in
  Alcotest.(check (list int)) "fifo on equal time" [ 1; 2; 3 ]
    (List.map (fun x -> snd (Option.get x)) [ a; b; c ])

let test_heap_filter () =
  (* dropping entries keeps the survivors in (time, insertion) order *)
  let h = Heap.create () in
  let entries = List.init 40 (fun i -> (float_of_int (i mod 7), i)) in
  List.iter (fun (t, v) -> Heap.push h ~time:t v) entries;
  Heap.filter h (fun v -> v mod 2 = 0);
  Heap.push h ~time:0.0 100;
  let rec drain acc =
    match Heap.pop h with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
  in
  let expected =
    List.filter (fun (_, v) -> v mod 2 = 0) entries @ [ (0.0, 100) ]
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  Alcotest.(check (list int)) "survivors in order" expected (drain [])

let test_delay_sequencing () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 10.0;
      log := ("a", Sim.now sim) :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay sim 5.0;
      log := ("b", Sim.now sim) :: !log;
      Sim.delay sim 20.0;
      log := ("c", Sim.now sim) :: !log);
  let t = Sim.run sim in
  Alcotest.(check (float 0.0)) "end time" 25.0 t;
  Alcotest.(check (list (pair string (float 0.0))))
    "event order" [ ("b", 5.0); ("a", 10.0); ("c", 25.0) ]
    (List.rev !log)

let test_lock_mutual_exclusion () =
  let sim = Sim.create () in
  let lock = Sync.Lock.create ~cost:1.0 sim in
  let in_section = ref 0 and max_in = ref 0 and total = ref 0 in
  for _ = 1 to 8 do
    Sim.spawn sim (fun () ->
        Sync.Lock.acquire lock;
        incr in_section;
        max_in := max !max_in !in_section;
        Sim.delay sim 10.0;
        incr total;
        decr in_section;
        Sync.Lock.release lock)
  done;
  let t = Sim.run sim in
  Alcotest.(check int) "mutual exclusion" 1 !max_in;
  Alcotest.(check int) "all ran" 8 !total;
  Alcotest.(check bool) "serialized time >= 80" true (t >= 80.0)

let test_cascade () =
  (* b(i) = b(i-1) + 1 over 10 iterations, 4 workers: cascade order *)
  let sim = Sim.create () in
  let casc = Sync.Cascade.create ~cost:0.0 ~first:1 sim in
  let b = Array.make 11 0 in
  let order = ref [] in
  let cfg = Config.cedar_config1 in
  ignore cfg;
  Sim.spawn sim (fun () ->
      Microtask.run_loop sim
        ~dispatch:{ Microtask.startup = 0.0; per_iter = 1.0 }
        ~proc_ids:[ (0, 0); (1, 0); (2, 0); (3, 0) ]
        ~lo:1 ~hi:10 ~step:1
        (fun ctx ->
          let i = ctx.Microtask.w_iter in
          Sim.delay sim 5.0;
          Sync.Cascade.await casc ~iter:i ~dist:1;
          b.(i) <- (if i = 1 then 0 else b.(i - 1)) + 1;
          order := i :: !order;
          Sync.Cascade.advance casc i;
          Sim.delay sim 3.0));
  let _ = Sim.run sim in
  Alcotest.(check int) "b(10)" 10 b.(10);
  Alcotest.(check (list int)) "cascade executes in order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

let test_microtask_balance () =
  (* 100 unit-cost iterations on 10 procs should take ~10 units + overhead *)
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      Microtask.run_loop sim
        ~dispatch:{ Microtask.startup = 0.0; per_iter = 0.0 }
        ~proc_ids:(List.init 10 (fun p -> (p, 0)))
        ~lo:1 ~hi:100 ~step:1
        (fun _ ->
          incr count;
          Sim.delay sim 1.0));
  let t = Sim.run sim in
  Alcotest.(check int) "all iterations" 100 !count;
  Alcotest.(check (float 0.001)) "balanced makespan" 10.0 t

let test_microtask_selfschedule_imbalance () =
  (* iteration cost grows with i: self-scheduling should beat T/P * c_max *)
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      Microtask.run_loop sim
        ~dispatch:{ Microtask.startup = 0.0; per_iter = 0.0 }
        ~proc_ids:(List.init 4 (fun p -> (p, 0)))
        ~lo:1 ~hi:16 ~step:1
        (fun ctx -> Sim.delay sim (float_of_int ctx.Microtask.w_iter)));
  let t = Sim.run sim in
  (* total work = 136, 4 procs => >= 34; greedy self-scheduling stays well
     under the naive 4*16=64 static-block worst case *)
  Alcotest.(check bool) "lower bound" true (t >= 34.0);
  Alcotest.(check bool) "self-scheduled" true (t <= 44.0)

let test_event () =
  let sim = Sim.create () in
  let ev = Sync.Event.create sim in
  let got = ref 0.0 in
  Sim.spawn sim (fun () ->
      Sync.Event.wait ev;
      got := Sim.now sim);
  Sim.spawn sim (fun () ->
      Sim.delay sim 42.0;
      Sync.Event.post ev);
  let _ = Sim.run sim in
  Alcotest.(check (float 0.0)) "posted at 42" 42.0 !got

let test_deadlock_detection () =
  let sim = Sim.create () in
  let ev = Sync.Event.create sim in
  Sim.spawn sim (fun () -> Sync.Event.wait ev);
  Alcotest.check_raises "deadlock raised" (Sim.Deadlock (0.0, 1)) (fun () ->
      ignore (Sim.run sim))

let test_deadlock_fiber_count () =
  (* 5 fibers: 3 finish at t=10, 2 block forever on an un-posted event at
     t=5.  The Deadlock payload must carry the time the simulation went
     quiet and exactly the number of fibers still blocked. *)
  let sim = Sim.create () in
  let ev = Sync.Event.create sim in
  for _ = 1 to 2 do
    Sim.spawn sim (fun () ->
        Sim.delay sim 5.0;
        Sync.Event.wait ev)
  done;
  for _ = 1 to 3 do
    Sim.spawn sim (fun () -> Sim.delay sim 10.0)
  done;
  Alcotest.check_raises "deadlock time + blocked-fiber count"
    (Sim.Deadlock (10.0, 2)) (fun () -> ignore (Sim.run sim))

(* random push/pop interleavings against a sorted-stable reference model:
   pops always come out in ascending time, FIFO within a tie, and the
   heap never invents or loses elements.  Times are drawn from 0..9 so
   ties are common. *)
let prop_heap_ordering_stability =
  QCheck.Test.make ~name:"heap: random push/pop sorted with FIFO ties"
    ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 80) (pair bool (int_range 0 9)))
       ~print:QCheck.Print.(list (pair bool int)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      (* insert keeping ascending time, new entry after its ties *)
      let insert time v =
        let rec ins = function
          | (t, w) :: rest when t <= time -> (t, w) :: ins rest
          | rest -> (time, v) :: rest
        in
        model := ins !model
      in
      let seq = ref 0 in
      let ok = ref true in
      let check_pop () =
        match (Heap.pop h, !model) with
        | None, [] -> ()
        | Some (ht, hv), (mt, mv) :: rest ->
            model := rest;
            if ht <> mt || hv <> mv then ok := false
        | Some _, [] | None, _ :: _ -> ok := false
      in
      List.iter
        (fun (is_push, t) ->
          if is_push then begin
            Heap.push h ~time:(float_of_int t) !seq;
            insert (float_of_int t) !seq;
            incr seq
          end
          else check_pop ();
          if Heap.length h <> List.length !model then ok := false)
        ops;
      while (not (Heap.is_empty h)) || !model <> [] do
        check_pop ()
      done;
      !ok)

let test_nested_parallel () =
  (* SDO over 2 clusters, CDO over 4 procs each: 2*4 leaf iterations *)
  let sim = Sim.create () in
  let leafs = ref 0 in
  Sim.spawn sim (fun () ->
      Microtask.run_loop sim
        ~dispatch:{ Microtask.startup = 10.0; per_iter = 1.0 }
        ~proc_ids:[ (0, 0); (8, 1) ] ~lo:1 ~hi:2 ~step:1
        (fun ctx ->
          Microtask.run_loop sim
            ~dispatch:{ Microtask.startup = 2.0; per_iter = 0.5 }
            ~proc_ids:
              (List.init 4 (fun p -> ((ctx.Microtask.w_cluster * 8) + p, ctx.Microtask.w_cluster)))
            ~lo:1 ~hi:4 ~step:1
            (fun _ ->
              incr leafs;
              Sim.delay sim 1.0)));
  let _ = Sim.run sim in
  Alcotest.(check int) "8 leaf iterations" 8 !leafs

(* property: microtask makespan is a valid greedy schedule: between
   max(total/P, max_c) and total/P + max_c (+dispatch) *)
let prop_greedy_bounds =
  QCheck.Test.make ~name:"self-scheduled makespan within greedy bounds"
    ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) (int_range 1 20))
       ~print:QCheck.Print.(list int))
    (fun costs ->
      QCheck.assume (costs <> []);
      let p = 4 in
      let sim = Sim.create () in
      let arr = Array.of_list costs in
      Sim.spawn sim (fun () ->
          Microtask.run_loop sim
            ~dispatch:{ Microtask.startup = 0.0; per_iter = 0.0 }
            ~proc_ids:(List.init p (fun q -> (q, 0)))
            ~lo:1 ~hi:(Array.length arr) ~step:1
            (fun ctx -> Sim.delay sim (float_of_int arr.(ctx.Microtask.w_iter - 1))));
      let t = Sim.run sim in
      let total = float_of_int (List.fold_left ( + ) 0 costs) in
      let cmax = float_of_int (List.fold_left max 1 costs) in
      let lower = max (total /. float_of_int p) cmax in
      let upper = (total /. float_of_int p) +. cmax +. 0.001 in
      t >= lower -. 0.001 && t <= upper)

let tests =
  [
    Alcotest.test_case "heap order" `Quick test_heap;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap filter keeps order" `Quick test_heap_filter;
    Alcotest.test_case "delay sequencing" `Quick test_delay_sequencing;
    Alcotest.test_case "lock mutual exclusion" `Quick test_lock_mutual_exclusion;
    Alcotest.test_case "cascade doacross" `Quick test_cascade;
    Alcotest.test_case "microtask balance" `Quick test_microtask_balance;
    Alcotest.test_case "microtask self-schedule" `Quick
      test_microtask_selfschedule_imbalance;
    Alcotest.test_case "event post/wait" `Quick test_event;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "deadlock fiber count" `Quick test_deadlock_fiber_count;
    Alcotest.test_case "nested parallel" `Quick test_nested_parallel;
    QCheck_alcotest.to_alcotest prop_greedy_bounds;
    QCheck_alcotest.to_alcotest prop_heap_ordering_stability;
  ]
