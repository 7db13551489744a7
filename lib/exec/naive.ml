module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Federation = Qt_catalog.Federation
module Node = Qt_catalog.Node
module Fragment = Qt_catalog.Fragment

let run ~source (q : Ast.t) =
  let bases =
    List.map
      (fun (r : Ast.table_ref) ->
        let table = Table.retag (source ~rel:r.relation ~alias:r.alias) ~alias:r.alias in
        let local =
          List.filter (fun p -> Analysis.predicate_aliases p = [ r.alias ]) q.where
        in
        (r.alias, Ops.filter table local))
      q.from
  in
  let multi = List.filter (fun p -> List.length (Analysis.predicate_aliases p) > 1) q.where in
  let joined =
    match bases with
    | [] -> invalid_arg "Naive.run: empty FROM"
    | (first_alias, first) :: rest ->
      let _, result, leftover =
        List.fold_left
          (fun (bound, acc, remaining) (alias, table) ->
            let bound = alias :: bound in
            let applicable, remaining =
              List.partition
                (fun p ->
                  List.for_all (fun a -> List.mem a bound) (Analysis.predicate_aliases p))
                remaining
            in
            (bound, Ops.hash_join acc table applicable, remaining))
          ([ first_alias ], first, multi)
          rest
      in
      Ops.filter result leftover
  in
  let below = Analysis.sorts_below_projection q in
  let sort t = if q.order_by = [] then t else Ops.sort t q.order_by in
  let aggregated =
    if q.group_by <> [] || Analysis.has_aggregate q then
      Ops.aggregate joined ~group_by:q.group_by q.select
    else Ops.project (if below then sort joined else joined) q.select
  in
  let deduped =
    if q.distinct && not (q.group_by <> [] || Analysis.has_aggregate q) then
      Ops.distinct aggregated
    else aggregated
  in
  if below then deduped else sort deduped

let run_global store q =
  run ~source:(fun ~rel ~alias:_ -> Store.global_table store rel) q

let node_source ?(imports = []) store federation ~node =
  let n = Federation.node federation node in
  fun ~rel ~alias:_ ->
    match Store.view_table store ~node ~view:rel with
    | Some view -> view
    | None -> (
      let imported =
        List.filter_map
          (fun (irel, _source, range) ->
            if irel = rel then Some (Store.fragment_table store ~rel ~range)
            else None)
          imports
      in
      match
        List.map
          (fun (f : Fragment.t) -> Store.fragment_table store ~rel ~range:f.range)
          (Node.fragments_of n rel)
        @ imported
      with
      | [] ->
        (* Unknown locally: an empty slice with the right columns. *)
        { (Store.global_table store rel) with Table.rows = [] }
      | first :: rest -> List.fold_left Table.append first rest)

let run_at_node ?imports store federation ~node q =
  run ~source:(node_source ?imports store federation ~node) q

let materialize_views store federation =
  List.iter
    (fun (n : Node.t) ->
      List.iter
        (fun (v : Qt_catalog.View.t) ->
          let result = run_at_node store federation ~node:n.node_id v.definition in
          (* Rename columns positionally to the stable view output names. *)
          let names =
            List.map Qt_views.View_match.output_name v.definition.Ast.select
          in
          let cols =
            Array.of_list
              (List.map (fun name -> { Table.alias = v.view_name; name }) names)
          in
          if Array.length cols <> Array.length result.Table.cols then
            invalid_arg
              (Printf.sprintf "Naive.materialize_views: width mismatch for %s"
                 v.view_name);
          Store.install_view store ~node:n.node_id ~view:v.view_name
            (Table.create cols result.Table.rows))
        n.views)
    federation.Federation.nodes
