module Ast = Qt_sql.Ast

let filter table preds =
  if preds = [] then table
  else
    { table with Table.rows = List.filter (fun row -> Eval.predicates table row preds) table.Table.rows }

(* Split join conjuncts into hashable equalities (left column, right
   column) and everything else. *)
let split_join_preds (left : Table.t) (right : Table.t) preds =
  List.fold_left
    (fun (eqs, rest) p ->
      match p with
      | Ast.Cmp (Ast.Eq, Ast.Col a, Ast.Col b) -> (
        let find (t : Table.t) (x : Ast.attr) =
          Table.find_col t ~alias:x.Ast.rel ~name:x.Ast.name
        in
        match (find left a, find right b, find left b, find right a) with
        | Some la, Some rb, _, _ -> ((la, rb) :: eqs, rest)
        | _, _, Some lb, Some ra -> ((lb, ra) :: eqs, rest)
        | _ -> (eqs, p :: rest))
      | Ast.Cmp _ | Ast.Between _ -> (eqs, p :: rest))
    ([], []) preds

(* A textual key that collides exactly when Value.compare says equal:
   numbers compare across int/float, strings are distinct from numbers.
   NULL gets its own tag — callers that need SQL equality (joins) must
   exclude NULL keys themselves; grouping keeps NULLs as one group. *)
let value_key v =
  match v with
  | Value.V_int n -> "n" ^ string_of_int n
  | Value.V_float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      "n" ^ string_of_int (int_of_float f)
    else "f" ^ string_of_float f
  | Value.V_string s -> "s" ^ s
  | Value.V_null -> "\x00null"

let hash_join (left : Table.t) (right : Table.t) preds =
  let eqs, rest = split_join_preds left right preds in
  let out_cols = Array.append left.Table.cols right.Table.cols in
  let joined = Table.empty out_cols in
  let rows =
    if eqs = [] then
      (* Filtered cartesian product. *)
      List.concat_map
        (fun lrow -> List.map (fun rrow -> Array.append lrow rrow) right.Table.rows)
        left.Table.rows
    else begin
      (* Hash keys must agree exactly with Value.compare equality: numbers
         compare across int/float, strings are distinct from numbers, and
         NULL never equals anything (SQL three-valued equality), matching
         both Eval.predicate and merge_join. *)
      let key_of row idxs =
        let values = List.map (fun i -> row.(i)) idxs in
        if List.exists Value.is_null values then None
        else Some (List.map value_key values)
      in
      let lidx = List.map fst eqs and ridx = List.map snd eqs in
      (* Belt and braces: hash buckets are candidates only; confirm each
         match with Value.compare so an unlikely key-rendering collision
         can never fabricate a join row. *)
      let really_equal lrow rrow =
        List.for_all2
          (fun li ri -> Value.compare lrow.(li) rrow.(ri) = 0)
          lidx ridx
      in
      let index = Hashtbl.create (max 16 (Table.cardinality right)) in
      List.iter
        (fun rrow ->
          match key_of rrow ridx with
          | Some k -> Hashtbl.add index k rrow
          | None -> ())
        right.Table.rows;
      List.concat_map
        (fun lrow ->
          match key_of lrow lidx with
          | Some k ->
            List.filter_map
              (fun rrow ->
                if really_equal lrow rrow then Some (Array.append lrow rrow) else None)
              (Hashtbl.find_all index k)
          | None -> [])
        left.Table.rows
    end
  in
  let merged = { joined with Table.rows = rows } in
  filter merged rest

let merge_join (left : Table.t) (right : Table.t) preds =
  let eqs, rest = split_join_preds left right preds in
  match eqs with
  | [] -> invalid_arg "Ops.merge_join: no equality conjunct"
  | (li, ri) :: more_eqs ->
    let lrows =
      List.sort (fun a b -> Value.compare a.(li) b.(li)) left.Table.rows
    in
    let rrows =
      List.sort (fun a b -> Value.compare a.(ri) b.(ri)) right.Table.rows
    in
    let out_cols = Array.append left.Table.cols right.Table.cols in
    (* Standard merge with duplicate runs: advance to equal keys, take the
       cross product of the two runs, continue after both runs. *)
    let take_run key idx rows =
      let rec go acc = function
        | row :: tail when Value.compare row.(idx) key = 0 -> go (row :: acc) tail
        | tail -> (List.rev acc, tail)
      in
      go [] rows
    in
    let rec merge acc lrows rrows =
      match (lrows, rrows) with
      | [], _ | _, [] -> List.rev acc
      | lrow :: ltail, rrow :: rtail ->
        let lk = lrow.(li) and rk = rrow.(ri) in
        if Value.is_null lk then merge acc ltail rrows
        else if Value.is_null rk then merge acc lrows rtail
        else
          let c = Value.compare lk rk in
          if c < 0 then merge acc ltail rrows
          else if c > 0 then merge acc lrows rtail
          else begin
            let lrun, lrest = take_run lk li lrows in
            let rrun, rrest = take_run rk ri rrows in
            let acc =
              List.fold_left
                (fun acc l ->
                  List.fold_left (fun acc r -> Array.append l r :: acc) acc rrun)
                acc lrun
            in
            merge acc lrest rrest
          end
    in
    let joined = { Table.cols = out_cols; rows = merge [] lrows rrows } in
    (* Residual equality conjuncts (multi-key joins) and other predicates
       filter the merged matches. *)
    let residual_eq_preds =
      List.map
        (fun (l, r) ->
          let lc = left.Table.cols.(l) and rc = right.Table.cols.(r) in
          Ast.Cmp
            ( Ast.Eq,
              Ast.Col { Ast.rel = lc.Table.alias; name = lc.Table.name },
              Ast.Col { Ast.rel = rc.Table.alias; name = rc.Table.name } ))
        more_eqs
    in
    filter joined (residual_eq_preds @ rest)

let nested_loop_join (left : Table.t) (right : Table.t) preds =
  let out_cols = Array.append left.Table.cols right.Table.cols in
  let joined =
    {
      Table.cols = out_cols;
      rows =
        List.concat_map
          (fun lrow -> List.map (fun rrow -> Array.append lrow rrow) right.Table.rows)
          left.Table.rows;
    }
  in
  filter joined preds

let expand_star (table : Table.t) alias =
  let cols = Array.to_list table.Table.cols in
  List.filter_map
    (fun (c : Table.col) ->
      if c.alias = alias then
        Some (c, Table.find_col_exn table ~alias:c.alias ~name:c.name)
      else None)
    cols

let project table items =
  let out =
    List.concat_map
      (fun item ->
        match item with
        | Ast.Sel_col a when a.Ast.name = "*" -> expand_star table a.Ast.rel
        | Ast.Sel_col a ->
          [
            ( { Table.alias = a.Ast.rel; name = a.Ast.name },
              Table.find_col_exn table ~alias:a.Ast.rel ~name:a.Ast.name );
          ]
        | Ast.Sel_agg _ -> invalid_arg "Ops.project: aggregate item")
      items
  in
  Table.project table out

(* Column naming rule shared by every producer of aggregate outputs. *)
let agg_output_col item =
  match item with
  | Ast.Sel_col a -> { Table.alias = a.Ast.rel; name = a.Ast.name }
  | Ast.Sel_agg _ -> { Table.alias = ""; name = Qt_views.View_match.output_name item }

type accumulator = {
  mutable count : int;
  mutable sum : Value.t;
  mutable min_v : Value.t option;
  mutable max_v : Value.t option;
}

let fresh_acc () = { count = 0; sum = Value.V_null; min_v = None; max_v = None }

let feed acc v =
  if not (Value.is_null v) then begin
    acc.count <- acc.count + 1;
    (match v with
    | Value.V_int _ | Value.V_float _ -> acc.sum <- Value.add acc.sum v
    | Value.V_string _ | Value.V_null -> ());
    (match acc.min_v with
    | None -> acc.min_v <- Some v
    | Some m -> if Value.compare v m < 0 then acc.min_v <- Some v);
    match acc.max_v with
    | None -> acc.max_v <- Some v
    | Some m -> if Value.compare v m > 0 then acc.max_v <- Some v
  end

let result_of fn acc =
  match fn with
  | Ast.Count -> Value.V_int acc.count
  | Ast.Sum -> acc.sum
  | Ast.Avg ->
    if acc.count = 0 then Value.V_null
    else Value.V_float (Value.to_float acc.sum /. float_of_int acc.count)
  | Ast.Min -> Option.value acc.min_v ~default:Value.V_null
  | Ast.Max -> Option.value acc.max_v ~default:Value.V_null

let aggregate table ~group_by items =
  let group_idxs =
    List.map
      (fun (a : Ast.attr) -> Table.find_col_exn table ~alias:a.Ast.rel ~name:a.Ast.name)
      group_by
  in
  let groups : (string, Value.t list * Value.t array list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun row ->
      let key_vals = List.map (fun i -> row.(i)) group_idxs in
      let key = String.concat "\x01" (List.map value_key key_vals) in
      match Hashtbl.find_opt groups key with
      | Some (_, rows) -> rows := row :: !rows
      | None ->
        Hashtbl.add groups key (key_vals, ref [ row ]);
        order := key :: !order)
    table.Table.rows;
  let keys = if group_by = [] then [ "" ] else List.rev !order in
  (* A global aggregate over zero rows still yields one row. *)
  if group_by = [] && not (Hashtbl.mem groups "") then
    Hashtbl.add groups "" ([], ref []);
  let out_cols = Array.of_list (List.map agg_output_col items) in
  let compute_row (key_vals, rows_ref) =
    let group_rows = !rows_ref in
    Array.of_list
      (List.map
         (fun item ->
           match item with
           | Ast.Sel_col a ->
             let pos =
               match
                 Qt_util.Listx.index_of (fun g -> Ast.equal_attr g a) group_by
               with
               | Some i -> i
               | None -> invalid_arg "Ops.aggregate: non-grouped plain column"
             in
             List.nth key_vals pos
           | Ast.Sel_agg (Ast.Count, None) -> Value.V_int (List.length group_rows)
           | Ast.Sel_agg (fn, Some a) ->
             let idx = Table.find_col_exn table ~alias:a.Ast.rel ~name:a.Ast.name in
             let acc = fresh_acc () in
             List.iter (fun row -> feed acc row.(idx)) group_rows;
             result_of fn acc
           | Ast.Sel_agg (fn, None) ->
             (* Non-COUNT aggregates require an argument in this subset. *)
             invalid_arg
               (Printf.sprintf "Ops.aggregate: %s without argument"
                  (match fn with
                  | Ast.Count -> "COUNT"
                  | Ast.Sum -> "SUM"
                  | Ast.Avg -> "AVG"
                  | Ast.Min -> "MIN"
                  | Ast.Max -> "MAX")))
         items)
  in
  let rows = List.map (fun key -> compute_row (Hashtbl.find groups key)) keys in
  Table.create out_cols rows

let distinct table =
  let sorted = Table.sort_rows table in
  let rec dedup = function
    | [] -> []
    | [ x ] -> [ x ]
    | x :: y :: rest ->
      if Array.length x = Array.length y
         && Array.for_all2 (fun a b -> Value.equal a b) x y
      then dedup (y :: rest)
      else x :: dedup (y :: rest)
  in
  { sorted with Table.rows = dedup sorted.Table.rows }

let sort table keys =
  let idxs =
    List.map
      (fun ((a : Ast.attr), ord) ->
        (Table.find_col_exn table ~alias:a.Ast.rel ~name:a.Ast.name, ord))
      keys
  in
  let cmp r1 r2 =
    let rec go = function
      | [] -> 0
      | (i, ord) :: rest ->
        let c = Value.compare r1.(i) r2.(i) in
        let c = match ord with Ast.Asc -> c | Ast.Desc -> -c in
        if c <> 0 then c else go rest
    in
    go idxs
  in
  { table with Table.rows = List.stable_sort cmp table.Table.rows }
