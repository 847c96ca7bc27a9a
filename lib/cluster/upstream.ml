type t = {
  cfg : Net.Client.cfg;
  max_idle : int;
  mutable idle : Net.Client.t list;
  mutable closed : bool;  (* connections are not kept *)
}

let create ?(max_idle = 8) cfg =
  { cfg; max_idle = max 0 max_idle; idle = []; closed = false }

let with_client t f =
  let conn =
    match t.idle with
    | c :: rest ->
        t.idle <- rest;
        Ok c
    | [] -> Net.Client.connect_fiber t.cfg
  in
  match conn with
  | Error _ as e -> e
  | Ok c -> (
      match f c with
      | Ok _ as ok ->
          if t.closed || List.length t.idle >= t.max_idle then
            Net.Client.close c
          else t.idle <- c :: t.idle;
          ok
      | Error _ as e ->
          Net.Client.close c;
          e
      | exception e ->
          Net.Client.close c;
          raise e)

let idle t = List.length t.idle

let close t =
  t.closed <- true;
  List.iter Net.Client.close t.idle;
  t.idle <- []
