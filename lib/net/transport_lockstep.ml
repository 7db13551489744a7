module Obs = Qt_obs.Obs

let create ?(obs = Obs.disabled) ?(track = -1) net =
  let pending = ref None in
  {
    Transport.alive = (fun _ -> true);
    broadcast_rfb =
      (fun ~targets ~signatures:_ ~request_bytes ->
        (if Obs.enabled obs then
           let at = Network.clock net in
           List.iter
             (fun id ->
               ignore
                 (Obs.instant obs ~cat:"message" ~name:"rfb" ~track
                    ~attrs:[ ("target", Obs.Int id); ("bytes", Obs.Int request_bytes) ]
                    ~at ()
                   : int))
             targets);
        pending := Some (targets, request_bytes));
    gather_offers =
      (fun ~serve ->
        match !pending with
        | None ->
          invalid_arg "Transport_lockstep: gather_offers without broadcast_rfb"
        | Some (targets, request_bytes) ->
          pending := None;
          let round_start = Network.clock net in
          let served = List.map (fun id -> (id, serve id)) targets in
          let participants =
            List.map
              (fun (_, (_, processing, reply_bytes)) ->
                (request_bytes, reply_bytes, processing))
              served
          in
          ignore (Network.parallel_round net participants : float);
          (if Obs.enabled obs then
             let round_end = Network.clock net in
             List.iter
               (fun (id, (_, processing, reply_bytes)) ->
                 ignore
                   (Obs.emit obs ~cat:"message" ~name:"offer" ~track:id
                      ~attrs:
                        [
                          ("bytes", Obs.Int reply_bytes);
                          ("processing", Obs.Float processing);
                        ]
                      ~t0:round_start ~t1:round_end ()
                     : int))
               served);
          {
            Transport.replies =
              List.map (fun (id, (reply, _, _)) -> (id, reply)) served;
            failed = [];
            fresh_failures = false;
          });
    account =
      (fun ~count ~bytes_each ~elapsed ->
        (if Obs.enabled obs && count > 0 then
           let at = Network.clock net in
           ignore
             (Obs.instant obs ~cat:"message" ~name:"chatter" ~track
                ~attrs:
                  [ ("count", Obs.Int count); ("bytes", Obs.Int (count * bytes_each)) ]
                ~at ()
               : int));
        Network.account_messages net ~count ~bytes_each ~elapsed);
    one_way = (fun ~bytes -> Network.one_way net ~bytes);
    elapsed = (fun () -> Network.clock net);
    messages = (fun () -> Network.messages net);
    bytes = (fun () -> Network.bytes_sent net);
  }
