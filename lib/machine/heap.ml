(** Binary min-heap keyed by (time, sequence number) — the event queue of
    the discrete-event simulator.  Ties in time break by insertion order,
    which makes simulations deterministic. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a entry option;
}

let create () = { data = [||]; size = 0; next_seq = 0; dummy = None }
let length h = h.size
let is_empty h = h.size = 0

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h entry =
  let cap = Array.length h.data in
  if h.size >= cap then begin
    let ncap = max 16 (2 * cap) in
    let ndata = Array.make ncap entry in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

let push h ~time payload =
  let entry = { time; seq = h.next_seq; payload } in
  h.next_seq <- h.next_seq + 1;
  grow h entry;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  (* sift up *)
  let i = ref (h.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before h.data.(!i) h.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = h.data.(parent) in
    h.data.(parent) <- h.data.(!i);
    h.data.(!i) <- tmp;
    i := parent
  done

let sift_down h i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.size && before h.data.(l) h.data.(!smallest) then smallest := l;
    if r < h.size && before h.data.(r) h.data.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = h.data.(!smallest) in
      h.data.(!smallest) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some (top.time, top.payload)
  end

let peek_time h = if h.size = 0 then None else Some h.data.(0).time

(* compacts the array too; sequence numbers survive, so ties still
   break by insertion order *)
let filter h keep =
  h.data <-
    Array.sub h.data 0 h.size |> Array.to_list
    |> List.filter (fun e -> keep e.payload)
    |> Array.of_list;
  h.size <- Array.length h.data;
  for i = (h.size / 2) - 1 downto 0 do
    sift_down h i
  done
