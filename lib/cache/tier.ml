module Federation = Qt_catalog.Federation
module Lru = Qt_util.Lru

type placement = Client | Shared

let placement_name = function Client -> "client" | Shared -> "shared"

type config = {
  placement : placement;
  clients : int;
  lookup_latency : float;
  hit_price_fraction : float;
  statement_entries : int;
  stmt_require_repeat : bool;
  result_entries : int;
  result_bytes : int;
}

let default_config =
  {
    placement = Shared;
    clients = 8;
    lookup_latency = 0.002;
    hit_price_fraction = 0.25;
    statement_entries = 512;
    stmt_require_repeat = true;
    result_entries = 512;
    result_bytes = 16 * 1024 * 1024;
  }

type instance = {
  stmt : Statement_cache.t;
  result : Result_cache.t;
}

type t = {
  cfg : config;
  instances : instance array;  (* one cell for Shared, [clients] for Client *)
  revenue : (int, float ref) Hashtbl.t;
  mutable trades_avoided : int;
  mutable executions_avoided : int;
}

let create cfg =
  let n =
    match cfg.placement with
    | Shared -> 1
    | Client ->
      if cfg.clients < 1 then
        invalid_arg "Tier.create: clients must be at least 1";
      cfg.clients
  in
  if cfg.hit_price_fraction < 0. || cfg.hit_price_fraction > 1. then
    invalid_arg "Tier.create: hit_price_fraction must be in [0, 1]";
  if cfg.lookup_latency < 0. then
    invalid_arg "Tier.create: lookup_latency must be non-negative";
  let instances =
    Array.init n (fun _ ->
        {
          stmt =
            Statement_cache.create ~require_repeat:cfg.stmt_require_repeat
              ~max_entries:cfg.statement_entries ();
          result =
            Result_cache.create ~max_entries:cfg.result_entries
              ~max_bytes:cfg.result_bytes ();
        })
  in
  {
    cfg;
    instances;
    revenue = Hashtbl.create 16;
    trades_avoided = 0;
    executions_avoided = 0;
  }

let config t = t.cfg

let instance t ~client =
  match t.cfg.placement with
  | Shared -> t.instances.(0)
  | Client ->
    if client < 0 then invalid_arg "Tier.instance: negative client";
    t.instances.(client mod t.cfg.clients)

let note_trade_avoided t = t.trades_avoided <- t.trades_avoided + 1
let note_execution_avoided t = t.executions_avoided <- t.executions_avoided + 1

let credit t ~seller amount =
  match Hashtbl.find_opt t.revenue seller with
  | Some r -> r := !r +. amount
  | None -> Hashtbl.replace t.revenue seller (ref amount)

let revenue t =
  Hashtbl.fold (fun seller r acc -> (seller, !r) :: acc) t.revenue []
  |> List.sort compare

let revenue_total t =
  Hashtbl.fold (fun _ r acc -> acc +. !r) t.revenue 0.

type stats = {
  placement : string;
  stmt : Statement_cache.stats;
  stmt_suppressed : int;
  result : Result_cache.stats;
  trades_avoided : int;
  executions_avoided : int;
  hit_revenue : float;
  hit_revenue_by_seller : (int * float) list;
  result_bytes_held : int;
}

(* Each client instance keeps its own counts; the tier reports their sum. *)
let stats t =
  let counts f =
    Array.fold_left (fun acc i -> Lru.add_stats acc (f i)) Lru.empty_stats
      t.instances
  and total f = Array.fold_left (fun acc i -> acc + f i) 0 t.instances in
  {
    placement = placement_name t.cfg.placement;
    stmt = counts (fun i -> Statement_cache.stats i.stmt);
    stmt_suppressed = total (fun i -> Statement_cache.suppressed i.stmt);
    result = counts (fun i -> Result_cache.stats i.result);
    trades_avoided = t.trades_avoided;
    executions_avoided = t.executions_avoided;
    hit_revenue = revenue_total t;
    hit_revenue_by_seller = revenue t;
    result_bytes_held = total (fun i -> Result_cache.bytes_held i.result);
  }

let fingerprint_of federation node = Federation.fingerprint federation node
let epoch_of federation = Federation.epoch federation
