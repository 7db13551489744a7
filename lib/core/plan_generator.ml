module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Schema = Qt_catalog.Schema
module Interval = Qt_util.Interval
module Listx = Qt_util.Listx
module Estimate = Qt_stats.Estimate
module Cost = Qt_cost.Cost
module Plan = Qt_optimizer.Plan
module Dp = Qt_optimizer.Dp
module Bitset = Qt_optimizer.Bitset
module Localize = Qt_rewrite.Localize
module View_match = Qt_views.View_match

type mode = Mode_dp | Mode_idp of int * int

type candidate = { plan : Plan.t; cost : Cost.t; description : string }

let rollup_agg = function
  | Ast.Sum -> Some Ast.Sum
  | Ast.Count -> Some Ast.Sum
  | Ast.Min -> Some Ast.Min
  | Ast.Max -> Some Ast.Max
  | Ast.Avg -> None

let rollup_items (q : Ast.t) =
  if q.distinct then None
  else if not (Analysis.has_aggregate q) then None
  else if
    List.exists
      (function Ast.Sel_agg (Ast.Avg, _) -> true | Ast.Sel_agg _ | Ast.Sel_col _ -> false)
      q.select
  then None
  else Some q.select

(* ------------------------------------------------------------------ *)
(* Offer classification                                                 *)
(* ------------------------------------------------------------------ *)

let set_equal_items a b =
  let sa = List.sort_uniq Ast.compare_select_item a
  and sb = List.sort_uniq Ast.compare_select_item b in
  List.length sa = List.length sb && List.for_all2 Ast.equal_select_item sa sb

let set_equal_attrs a b =
  let sa = List.sort_uniq Ast.compare_attr a and sb = List.sort_uniq Ast.compare_attr b in
  List.length sa = List.length sb && List.for_all2 Ast.equal_attr sa sb

(* Offers whose answer is already shaped like the full query result
   (aggregation computed at the seller). *)
let is_agg_shaped (q : Ast.t) (o : Offer.t) =
  (Analysis.has_aggregate q || q.group_by <> [])
  && set_equal_items o.answers.Ast.select q.select
  && set_equal_attrs o.answers.Ast.group_by q.group_by

let covers_fully schema q (o : Offer.t) subset =
  List.for_all
    (fun alias ->
      match List.assoc_opt alias o.coverage with
      | None -> false
      | Some covered ->
        Interval.contains covered (Localize.required_range schema q alias))
    subset

let remote_of_offer weights (o : Offer.t) =
  Plan.Remote
    {
      Plan.seller = o.seller;
      query = o.query;
      query_sig = o.query_sig;
      remote_rows = o.props.rows;
      remote_row_bytes = o.props.row_bytes;
      delivered_cost = Cost.make ~net:(Offer.valuation weights o) ();
      rename = o.rename;
      imports = o.imports;
    }

(* ------------------------------------------------------------------ *)
(* Union tiling                                                         *)
(* ------------------------------------------------------------------ *)

(* Optimal exact tiling of [required] by pieces [(offer, range)] with
   pairwise-disjoint ranges: dynamic programming over range start
   positions, minimizing total offer valuation. *)
let tile weights ~required pieces =
  let memo : (int, (float * Offer.t list) option) Hashtbl.t = Hashtbl.create 16 in
  let rec solve pos =
    if pos > required.Interval.hi then Some (0., [])
    else
      match Hashtbl.find_opt memo pos with
      | Some cached -> cached
      | None ->
        let answer =
          List.fold_left
            (fun best (offer, (range : Interval.t)) ->
              if range.Interval.lo <> pos then best
              else
                match solve (range.Interval.hi + 1) with
                | None -> best
                | Some (rest_value, rest_pieces) ->
                  let total = Offer.valuation weights offer +. rest_value in
                  let candidate = Some (total, offer :: rest_pieces) in
                  (match best with
                  | Some (bv, _) when bv <= total -> best
                  | Some _ | None -> candidate))
            None pieces
        in
        Hashtbl.replace memo pos answer;
        answer
  in
  Option.map snd (solve required.Interval.lo)

(* Aliases an offer restricts below the query's requirement. *)
let restricted_aliases schema q (o : Offer.t) =
  List.filter
    (fun alias ->
      match List.assoc_opt alias o.coverage with
      | None -> true
      | Some covered ->
        not (Interval.contains covered (Localize.required_range schema q alias)))
    o.subset

let partition_key_attr schema (q : Ast.t) alias =
  Option.bind (Analysis.relation_of_alias q alias) (fun rel_name ->
      Option.bind (Schema.find_relation schema rel_name) (fun rel ->
          Option.map
            (fun key -> { Ast.rel = alias; name = key })
            rel.Schema.partition_key))

(* A UNION ALL over offers restricting {e several} aliases is only correct
   when the restricted aliases' partition keys are transitively connected
   by equality join predicates (co-partitioned join): then every joined
   row lands in exactly one piece.  Check that connectivity. *)
let keys_eq_connected schema (q : Ast.t) restricted =
  match restricted with
  | [] | [ _ ] -> true
  | seed :: _ ->
    let key_of alias = partition_key_attr schema q alias in
    let edge a b =
      match (key_of a, key_of b) with
      | Some ka, Some kb ->
        List.exists
          (fun p ->
            match p with
            | Ast.Cmp (Ast.Eq, Ast.Col x, Ast.Col y) ->
              (Ast.equal_attr x ka && Ast.equal_attr y kb)
              || (Ast.equal_attr x kb && Ast.equal_attr y ka)
            | Ast.Cmp _ | Ast.Between _ -> false)
          q.Ast.where
      | None, _ | _, None -> false
    in
    let rec bfs visited frontier =
      match frontier with
      | [] -> visited
      | x :: rest ->
        if List.mem x visited then bfs visited rest
        else
          bfs (x :: visited)
            (List.filter (fun y -> edge x y && not (List.mem y visited)) restricted
            @ rest)
    in
    let reached = bfs [] [ seed ] in
    List.for_all (fun a -> List.mem a reached) restricted

(* How an offer can participate in a disjoint UNION ALL, if at all.

   A piece restricts one or more aliases to key sub-ranges.  When several
   are restricted, their partition keys must be transitively linked by
   equality join predicates (co-partitioned join): every delivered join
   row then has its key inside the {e intersection} of the restricted
   coverages, so that intersection is the piece's tile.  A set of pieces
   with the same restricted-alias group whose tiles disjointly cover the
   intersection of those aliases' required ranges reconstructs the
   unrestricted result exactly. *)
let piece_info schema q subset (o : Offer.t) =
  if List.sort String.compare o.subset <> List.sort String.compare subset then None
  else
    match restricted_aliases schema q o with
    | [] -> None (* complete offer: a single block, not a union piece *)
    | restricted ->
      if not (keys_eq_connected schema q restricted) then None
      else begin
        let common =
          List.fold_left
            (fun acc alias ->
              match List.assoc_opt alias o.coverage with
              | Some r -> Interval.inter acc r
              | None -> Interval.empty)
            Interval.full restricted
        in
        if Interval.is_empty common then None
        else
          let target =
            List.fold_left
              (fun acc alias ->
                Interval.inter acc (Localize.required_range schema q alias))
              Interval.full restricted
          in
          let group_key = String.concat "," (List.sort String.compare restricted) in
          Some (group_key, common, target)
      end

(* Union blocks for a subset: group usable pieces by their restricted-alias
   set and tile the group's target range with disjoint pieces.  Each block
   comes back as (restricted group, winning pieces, UNION ALL plan). *)
let union_blocks weights schema q subset offers =
  let pieces =
    List.filter_map
      (fun o -> Option.map (fun (g, c, t) -> (o, g, c, t)) (piece_info schema q subset o))
      offers
  in
  let by_group = Listx.group_by (fun (_, g, _, _) -> g) pieces in
  List.filter_map
    (fun (g, group) ->
      match group with
      | [] -> None
      | (_, _, _, target) :: _ ->
        if Interval.equal target Interval.full then None
        else
          let tiles = List.map (fun (o, _, common, _) -> (o, common)) group in
          (match tile weights ~required:target tiles with
          | Some winners when List.length winners > 1 ->
            let inputs = List.map (remote_of_offer weights) winners in
            let rows = Listx.sum_by (fun (o : Offer.t) -> o.props.rows) winners in
            Some (g, winners, Plan.Union { inputs; rows })
          | Some _ | None -> None))
    by_group

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                 *)
(* ------------------------------------------------------------------ *)

(* The block table: per alias subset that some offer answers, the cheapest
   unit of remote work for it — one fully covering offer or a
   partition-disjoint union — stored with its cost, as the enumeration's
   seeded memo.  Offers are grouped by alias mask; a subset mentioning an
   alias outside [ctx] could never be joined into the enumeration and is
   skipped.  On cost ties the first block found stays. *)
let blocks ~params ~weights ~schema ~ctx q offers =
  let table : Dp.entry list Bitset.table = Bitset.table_create ctx in
  let consider m plan =
    let cost = Plan.cost params plan in
    match Bitset.table_get table m with
    | Some ((_, existing) :: _) when Cost.compare existing cost <= 0 -> ()
    | Some _ | None -> Bitset.table_set table m [ (plan, cost) ]
  in
  let by_mask =
    Listx.group_by fst
      (List.filter_map
         (fun (o : Offer.t) ->
           Option.map (fun m -> (m, o)) (Bitset.of_list_opt ctx o.subset))
         offers)
  in
  List.iter
    (fun (m, group) ->
      let group = List.map snd group in
      let subset = Bitset.to_list ctx m in
      List.iter
        (fun (o : Offer.t) ->
          if covers_fully schema q o subset then consider m (remote_of_offer weights o))
        group;
      List.iter
        (fun (_, _, union) -> consider m union)
        (union_blocks weights schema q subset group))
    by_mask;
  table

let maybe_sort (q : Ast.t) plan =
  if q.order_by = [] || Plan.satisfies_order plan q.order_by then plan
  else Plan.Sort { input = plan; keys = q.order_by; rows = Plan.rows plan }

let singleton_blocks ~params ~weights ~schema ~offers (q : Ast.t) =
  let aliases = Analysis.aliases q in
  let ctx = Bitset.make aliases in
  let singles =
    List.filter
      (fun (o : Offer.t) ->
        List.length o.subset = 1 && not (Analysis.has_aggregate o.query))
      offers
  in
  let table = blocks ~params ~weights ~schema ~ctx q singles in
  List.filter_map
    (fun alias ->
      match Bitset.table_get table (Bitset.bit ctx alias) with
      | Some ((plan, _) :: _) -> Some (alias, plan)
      | Some [] | None -> None)
    aliases

let generate ~params ~weights ~mode ~schema ~offers ?pool (q : Ast.t) =
  let aliases = Analysis.aliases q in
  let ctx = Bitset.make aliases in
  let agg_shaped, spj_offers = List.partition (is_agg_shaped q) offers in
  (* --- direct final answers -------------------------------------- *)
  let full_subset = List.sort String.compare aliases in
  let final_answers =
    List.filter
      (fun (o : Offer.t) ->
        o.subset = full_subset && covers_fully schema q o full_subset)
      agg_shaped
  in
  let final_candidates =
    List.map
      (fun (o : Offer.t) ->
        let plan =
          let leaf = remote_of_offer weights o in
          if o.answers.Ast.order_by = q.order_by then leaf else maybe_sort q leaf
        in
        {
          plan;
          cost = Plan.cost params plan;
          description = Printf.sprintf "final-answer@node%d" o.seller;
        })
      final_answers
  in
  (* --- two-phase aggregation ------------------------------------- *)
  let two_phase_candidates =
    match rollup_items q with
    | None -> []
    | Some _ ->
      List.map
        (fun (group, winners, union) ->
          let env = Estimate.env_of_schema schema q in
          let roll_select =
            List.map
              (fun item ->
                match item with
                | Ast.Sel_col a -> Ast.Sel_col a
                | Ast.Sel_agg (f, _) -> (
                  match rollup_agg f with
                  | Some rolled ->
                    Ast.Sel_agg
                      (rolled, Some { Ast.rel = ""; name = View_match.output_name item })
                  | None ->
                    (* rollup_items q already excluded AVG. *)
                    assert false))
              q.select
          in
          let rolled =
            Plan.Aggregate
              {
                input = union;
                group_by = q.group_by;
                select = roll_select;
                rows = Estimate.output_rows env q;
              }
          in
          let plan = maybe_sort q rolled in
          {
            plan;
            cost = Plan.cost params plan;
            description =
              Printf.sprintf "two-phase-aggregate(%d pieces on %s)" (List.length winners)
                group;
          })
        (union_blocks weights schema q full_subset agg_shaped)
  in
  (* --- SPJ blocks joined by the shared enumerator ------------------ *)
  let memo = blocks ~params ~weights ~schema ~ctx q spj_offers in
  (* Estimation environment for join results: singleton block rows where
     known, schema cardinalities otherwise. *)
  let env =
    let base_rows =
      List.map
        (fun alias ->
          match Bitset.table_get memo (Bitset.bit ctx alias) with
          | Some ((plan, _) :: _) -> (alias, Plan.rows plan)
          | Some [] | None -> (
            match Analysis.relation_of_alias q alias with
            | Some rel -> (
              match Schema.find_relation schema rel with
              | Some r -> (alias, float_of_int r.cardinality)
              | None -> (alias, 1000.))
            | None -> (alias, 1000.)))
        aliases
    in
    let key_ranges =
      List.filter_map
        (fun alias ->
          Option.map
            (fun (key : Ast.attr) ->
              (alias, (key.Ast.name, Localize.required_range schema q alias)))
            (partition_key_attr schema q alias))
        aliases
    in
    Estimate.env_of_fragments ~key_ranges schema q base_rows
  in
  let prune = match mode with Mode_dp -> None | Mode_idp (k, m) -> Some (k, m) in
  let (_ : int list list) =
    Dp.enumerate ~ctx ~env ?prune ?pool ~cost:(Plan.cost params)
      ~keep:Dp.keep_cheapest ~memo q
  in
  let joined_candidate =
    match Bitset.table_get memo (Bitset.full ctx) with
    | None | Some [] -> []
    | Some ((plan, _) :: _) ->
      let finalized = Dp.finalize ~params ~env q plan in
      [
        {
          plan = finalized.Dp.plan;
          cost = finalized.Dp.cost;
          description =
            (match mode with
            | Mode_dp -> "dp-join over traded blocks"
            | Mode_idp (k, m) -> Printf.sprintf "idp(%d,%d)-join over traded blocks" k m);
        };
      ]
  in
  let all = final_candidates @ two_phase_candidates @ joined_candidate in
  List.sort (fun a b -> Cost.compare a.cost b.cost) all
