type t = {
  cfg : Net.Client.cfg;
  max_idle : int;
  mutex : Mutex.t;
  mutable idle : Net.Client.t list;
  mutable closed : bool;
}

let create ?(max_idle = 8) cfg =
  { cfg; max_idle = max 0 max_idle; mutex = Mutex.create (); idle = []; closed = false }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let checkout t =
  match with_lock t (fun () ->
      match t.idle with
      | c :: rest ->
          t.idle <- rest;
          Some c
      | [] -> None)
  with
  | Some c -> Ok c
  | None -> Net.Client.connect t.cfg

let checkin t c ~healthy =
  let keep =
    healthy
    && with_lock t (fun () ->
           if (not t.closed) && List.length t.idle < t.max_idle then begin
             t.idle <- c :: t.idle;
             true
           end
           else false)
  in
  if not keep then Net.Client.close c

let with_client t f =
  match checkout t with
  | Error _ as e -> e
  | Ok c -> (
      match f c with
      | Ok _ as ok ->
          checkin t c ~healthy:true;
          ok
      | Error _ as e ->
          (* the socket may hold half a conversation: drop it *)
          checkin t c ~healthy:false;
          e
      | exception e ->
          checkin t c ~healthy:false;
          raise e)

let close_all t =
  let drained =
    with_lock t (fun () ->
        t.closed <- true;
        let cs = t.idle in
        t.idle <- [];
        cs)
  in
  List.iter Net.Client.close drained
