module Federation = Qt_catalog.Federation
module Node = Qt_catalog.Node

let surviving_contracts ~failed (previous : Trader.outcome) =
  Offer.surviving ~failed previous.Trader.purchased

let failover ?config ~params ~failed ~previous (federation : Federation.t) q =
  let survivors =
    List.filter
      (fun (n : Node.t) -> not (List.mem n.node_id failed))
      federation.nodes
  in
  if survivors = [] then Result.Error "failover: every node failed"
  else begin
    let reduced = Federation.create federation.schema survivors in
    let config = Option.value config ~default:(Trader.default_config params) in
    let standing = surviving_contracts ~failed previous in
    (* Re-trade exactly what the failures took away: contracts of dead
       sellers, and contracts whose subcontracted imports came from a
       dead node (the seller is alive but can no longer deliver). *)
    let lost =
      Qt_sql.Analysis.dedup_semantic
        (List.filter_map
           (fun (o : Offer.t) ->
             if List.memq o standing then None else Some o.answers)
           previous.Trader.purchased)
    in
    let requests = if lost = [] then None else Some lost in
    Trader.optimize ~standing ?requests config reduced q
  end
