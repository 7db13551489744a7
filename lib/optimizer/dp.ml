module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Estimate = Qt_stats.Estimate
module Cost = Qt_cost.Cost
module Listx = Qt_util.Listx

type partial = {
  subset : string list;
  mask : int;
  query : Ast.t;
  plan : Plan.t;
  rows : float;
  cost : Cost.t;
}

type result = { partials : partial list; best : partial option }

type entry = Plan.t * Cost.t

(* Top-level query semantics on top of a joined-rows plan.  The Sort is
   skipped when the plan's output order already satisfies the ORDER BY
   (interesting orders), and goes beneath the projection when an ORDER BY
   key is not selected. *)
let finalize ~params ?(cpu_factor = 1.0) ?(io_factor = 1.0) ~env (q : Ast.t) plan =
  let out_rows = Estimate.output_rows env q in
  let sort p =
    if Plan.satisfies_order p q.order_by then p
    else Plan.Sort { input = p; keys = q.order_by; rows = Plan.rows p }
  in
  let below = Analysis.sorts_below_projection q in
  let with_agg =
    if q.group_by <> [] || Analysis.has_aggregate q then
      Plan.Aggregate { input = plan; group_by = q.group_by; select = q.select; rows = out_rows }
    else
      let input = if below then sort plan else plan in
      Plan.Project { input; select = q.select; rows = Plan.rows plan }
  in
  let with_distinct =
    if q.distinct && not (q.group_by <> [] || Analysis.has_aggregate q) then
      Plan.Distinct { input = with_agg; rows = out_rows }
    else with_agg
  in
  let with_sort = if below then with_distinct else sort with_distinct in
  let subset = List.sort String.compare (Analysis.aliases q) in
  {
    subset;
    mask = (1 lsl List.length (List.sort_uniq String.compare subset)) - 1;
    query = q;
    plan = with_sort;
    rows = Plan.rows with_sort;
    cost = Plan.cost params ~cpu_factor ~io_factor with_sort;
  }

(* Join algorithms applicable to a predicate set: hash and sort-merge need
   an equality conjunct; nested loop is the fallback. *)
let algos_for preds =
  let has_eq =
    List.exists
      (function
        | Ast.Cmp (Ast.Eq, Ast.Col a, Ast.Col b) -> a.Ast.rel <> b.Ast.rel
        | Ast.Cmp _ | Ast.Between _ -> false)
      preds
  in
  if has_eq then [ Plan.Hash; Plan.Sort_merge ] else [ Plan.Nested_loop ]

let keep_cheapest candidates =
  Option.to_list (Listx.min_by (fun (_, c) -> Cost.response c) candidates)

(* The seller's memo slots: the cheapest plan and, when that one is
   unordered, the cheapest plan with a sorted output, kept because a
   downstream merge join or ORDER BY may redeem its extra cost. *)
let keep_cheapest_and_ordered candidates =
  match keep_cheapest candidates with
  | [ (best_plan, _) ] as best when Plan.output_order best_plan = [] ->
    best
    @ keep_cheapest (List.filter (fun (p, _) -> Plan.output_order p <> []) candidates)
  | kept -> kept

let enumerate ~ctx ~env ?prune ?pool ~cost ~keep ~(memo : entry list Bitset.table)
    (q : Ast.t) =
  let from_bits = List.filter_map (Bitset.bit_opt ctx) (Analysis.aliases q) in
  (* Join predicates with every referenced alias interned, paired with
     their alias masks, in WHERE order.  A predicate mentioning an alias
     outside the universe can never be fully covered by a subset of it,
     so it is excluded up front. *)
  let conn_preds =
    List.filter_map
      (fun p ->
        let als = Analysis.predicate_aliases p in
        if List.length als > 1 then
          Option.map (fun m -> (p, m)) (Bitset.of_list_opt ctx als)
        else None)
      q.where
  in
  let adj = Bitset.adjacency ctx (List.map Analysis.predicate_aliases q.where) in
  let connecting left right union =
    List.filter_map
      (fun (p, pm) ->
        if pm land left <> 0 && pm land right <> 0 && pm land lnot union = 0 then
          Some p
        else None)
      conn_preds
  in
  let inputs mask = Option.value ~default:[] (Bitset.table_get memo mask) in
  (* Alternatives for one subset: its seeded entries (a buyer's pre-built
     block) plus every join split of smaller memo entries.  Reads only
     strictly smaller entries and its own seed, so all subsets of one
     level can be computed concurrently; the caller merges results in
     enumeration order, which keeps output byte-identical at any domain
     count. *)
  let compute_subset smask =
    let rest_mask = smask land lnot (Bitset.lowest_bit smask) in
    let out_rows = lazy (Estimate.subset_rows env q (Bitset.to_list ctx smask)) in
    let candidates = ref (inputs smask) in
    List.iter
      (fun right ->
        let left = smask land lnot right in
        match (inputs left, inputs right) with
        | [], _ | _, [] -> ()
        | lefts, rights ->
          let preds = connecting left right smask in
          if preds <> [] then begin
            let out_rows = Lazy.force out_rows in
            let algos = algos_for preds in
            List.iter
              (fun (lp, _) ->
                List.iter
                  (fun (rp, _) ->
                    List.iter
                      (fun algo ->
                        let build, probe =
                          match algo with
                          | Plan.Hash when Plan.rows lp > Plan.rows rp -> (rp, lp)
                          | Plan.Hash | Plan.Sort_merge | Plan.Nested_loop -> (lp, rp)
                        in
                        let plan = Plan.Join { algo; build; probe; preds; rows = out_rows } in
                        candidates := (plan, cost plan) :: !candidates)
                      algos)
                  rights)
              lefts
          end)
      (Bitset.nonempty_submasks rest_mask);
    keep !candidates
  in
  let level1 = List.filter (fun b -> Bitset.table_get memo b <> None) from_bits in
  let levels = ref [ level1 ] in
  for size = 2 to List.length from_bits do
    let subsets =
      List.filter (Bitset.connected adj) (Bitset.subsets_of_size size from_bits)
    in
    let computed =
      match pool with
      | Some p when Pool.domains p > 1 && List.length subsets > 1 ->
        Array.to_list (Pool.map p compute_subset (Array.of_list subsets))
      | Some _ | None -> List.map compute_subset subsets
    in
    let built =
      List.rev
        (List.fold_left2
           (fun acc smask kept ->
             match kept with
             | [] -> acc
             | _ :: _ ->
               Bitset.table_set memo smask kept;
               smask :: acc)
           [] subsets computed)
    in
    (* IDP(k,m): at level k, retain only the m cheapest sub-plans. *)
    let kept =
      match prune with
      | Some (k, m) when size = k && List.length built > m ->
        let response_of smask =
          match Bitset.table_get memo smask with
          | Some ((_, c) :: _) -> Cost.response c
          | Some [] | None -> infinity
        in
        let ranked =
          List.sort (fun a b -> Float.compare (response_of a) (response_of b)) built
        in
        let survivors = Listx.take m ranked in
        let survivor_set = Hashtbl.create (2 * m) in
        List.iter (fun s -> Hashtbl.replace survivor_set s ()) survivors;
        List.iter
          (fun smask ->
            if not (Hashtbl.mem survivor_set smask) then Bitset.table_remove memo smask)
          built;
        survivors
      | Some _ | None -> built
    in
    levels := kept :: !levels
  done;
  List.rev !levels

let optimize ~params ?(cpu_factor = 1.0) ?(io_factor = 1.0) ?prune ?pool ~env
    ~(base : string -> Plan.t option) (q : Ast.t) =
  let aliases = Analysis.aliases q in
  let cost p = Plan.cost params ~cpu_factor ~io_factor p in
  (* Level 1: access path plus local selections. *)
  let level1 =
    List.filter_map
      (fun alias ->
        match base alias with
        | None -> None
        | Some access ->
          let local_preds =
            List.filter (fun p -> Analysis.predicate_aliases p = [ alias ]) q.where
          in
          let rows = Estimate.alias_rows env q alias in
          let plan =
            if local_preds = [] then access
            else Plan.Filter { input = access; preds = local_preds; rows }
          in
          Some (alias, plan))
      aliases
  in
  (* Alias universe interned once: subsets, memo keys and predicate
     coverage all become machine-word bit operations from here on. *)
  let ctx = Bitset.make (List.map fst level1) in
  let memo = Bitset.table_create ctx in
  List.iter
    (fun (alias, plan) ->
      Bitset.table_set memo (Bitset.bit ctx alias) [ (plan, cost plan) ])
    level1;
  let levels =
    enumerate ~ctx ~env ?prune ?pool ~cost ~keep:keep_cheapest_and_ordered ~memo q
  in
  let partial_of smask =
    match Bitset.table_get memo smask with
    | None | Some [] -> None
    | Some ((plan, _) :: _) ->
      let subset = Bitset.to_list ctx smask in
      let restricted = Analysis.restrict q subset in
      let projected =
        Plan.Project { input = plan; select = restricted.select; rows = Plan.rows plan }
      in
      Some
        {
          subset;
          mask = smask;
          query = restricted;
          plan = projected;
          rows = Plan.rows projected;
          cost = cost projected;
        }
  in
  let partials = List.concat_map (List.filter_map partial_of) levels in
  let best =
    if List.length level1 <> List.length aliases || level1 = [] then None
    else
      Option.value ~default:[] (Bitset.table_get memo (Bitset.full ctx))
      |> List.map (fun (plan, _) -> finalize ~params ~cpu_factor ~io_factor ~env q plan)
      |> Listx.min_by (fun p -> Cost.response p.cost)
  in
  { partials; best }
