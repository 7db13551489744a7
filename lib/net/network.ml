type t = {
  params : Qt_cost.Params.t;
  mutable clock : float;
  mutable messages : int;
  mutable bytes_sent : int;
}

let create params = { params; clock = 0.; messages = 0; bytes_sent = 0 }

let clock t = t.clock
let messages t = t.messages
let bytes_sent t = t.bytes_sent

let reset_counters t =
  t.clock <- 0.;
  t.messages <- 0;
  t.bytes_sent <- 0

let payload t bytes = bytes + t.params.Qt_cost.Params.msg_overhead_bytes

let one_way t ~bytes =
  let p = t.params in
  p.Qt_cost.Params.net_latency
  +. (float_of_int (payload t bytes) /. p.Qt_cost.Params.net_bandwidth)

let account t ~bytes =
  t.messages <- t.messages + 1;
  t.bytes_sent <- t.bytes_sent + payload t bytes

let send t ~bytes =
  account t ~bytes;
  let dt = one_way t ~bytes in
  t.clock <- t.clock +. dt;
  dt

let broadcast t ~count ~bytes =
  if count < 0 then invalid_arg "Network.broadcast: negative count";
  t.messages <- t.messages + count;
  t.bytes_sent <- t.bytes_sent + (count * payload t bytes);
  one_way t ~bytes

let gather t replies =
  List.fold_left
    (fun acc (bytes, processing) ->
      account t ~bytes;
      Float.max acc (one_way t ~bytes +. processing))
    0. replies

let parallel_round t participants =
  let elapsed =
    List.fold_left
      (fun acc (request_bytes, reply_bytes, processing) ->
        let send = broadcast t ~count:1 ~bytes:request_bytes in
        let reply = gather t [ (reply_bytes, processing) ] in
        Float.max acc (send +. reply))
      0. participants
  in
  t.clock <- t.clock +. elapsed;
  elapsed

let local_work t dt = t.clock <- t.clock +. Float.max 0. dt

let account_messages t ~count ~bytes_each ~elapsed =
  ignore (broadcast t ~count ~bytes:bytes_each : float);
  t.clock <- t.clock +. Float.max 0. elapsed
