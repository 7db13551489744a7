module Trader = Qt_core.Trader
module Plan_generator = Qt_core.Plan_generator
module Common = Qt_baseline.Common
module Omniscient = Qt_baseline.Omniscient
module Two_step = Qt_baseline.Two_step

type metrics = {
  optimizer : string;
  plan_cost : float;
  sim_time : float;
  messages : int;
  kbytes : float;
  iterations : int;
  wall_ms : float;
}

let of_trader optimizer (s : Trader.stats) =
  {
    optimizer;
    plan_cost = s.plan_cost;
    sim_time = s.sim_time;
    messages = s.messages;
    kbytes = float_of_int s.bytes /. 1024.;
    iterations = s.iterations;
    wall_ms = 1000. *. s.wall_time;
  }

let of_baseline optimizer (s : Common.stats) =
  {
    optimizer;
    plan_cost = s.plan_cost;
    sim_time = s.sim_time;
    messages = s.messages;
    kbytes = float_of_int s.bytes /. 1024.;
    iterations = 1;
    wall_ms = 1000. *. s.wall_time;
  }

let failed optimizer =
  {
    optimizer;
    plan_cost = infinity;
    sim_time = infinity;
    messages = 0;
    kbytes = 0.;
    iterations = 0;
    wall_ms = 0.;
  }

let run_qt ?config ~params federation q =
  let config = Option.value config ~default:(Trader.default_config params) in
  match Trader.optimize config federation q with
  | Ok outcome -> Ok (of_trader "QT" outcome.Trader.stats, outcome)
  | Error e -> Error e

let run_qt_faulty ?config ?rpc ?(faults = Qt_runtime.Fault_plan.none) ~params
    ~seed federation q =
  let runtime = Qt_runtime.Runtime.create ?rpc ~faults ~params ~seed () in
  let transport =
    Qt_runtime.Transport_des.create runtime ~buyer:Trader.buyer_id
      ~nodes:
        (List.map
           (fun (n : Qt_catalog.Node.t) -> n.node_id)
           federation.Qt_catalog.Federation.nodes)
  in
  let config = Option.value config ~default:(Trader.default_config params) in
  match Trader.optimize ~transport config federation q with
  | Ok outcome ->
    Ok
      ( of_trader "QT-faulty" outcome.Trader.stats,
        outcome,
        Qt_runtime.Runtime.stats runtime )
  | Error e -> Error e

let run_global_dp ?(staleness = 1.) ~params federation q =
  Result.map
    (fun (r : Common.result) -> of_baseline "Global-DP" r.Common.stats)
    (Omniscient.global_dp ~staleness ~params federation q)

let run_idp ?(staleness = 1.) ~params federation q =
  Result.map
    (fun (r : Common.result) -> of_baseline "IDP-M(2,5)" r.Common.stats)
    (Omniscient.idp_m ~staleness ~params federation q)

let run_two_step ?(staleness = 1.) ~params federation q =
  Result.map
    (fun (r : Common.result) -> of_baseline "Two-step" r.Common.stats)
    (Two_step.optimize ~staleness ~params federation q)

let or_failed name = function Ok m -> m | Error _ -> failed name

let compare_all ?(staleness = 1.) ~params federation q =
  [
    or_failed "QT" (Result.map fst (run_qt ~params federation q));
    or_failed "Global-DP" (run_global_dp ~staleness ~params federation q);
    or_failed "IDP-M(2,5)" (run_idp ~staleness ~params federation q);
    or_failed "Two-step" (run_two_step ~staleness ~params federation q);
  ]
