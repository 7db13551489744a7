module Ast = Qt_sql.Ast
module Analysis = Qt_sql.Analysis
module Interval = Qt_util.Interval

let is_range_conjunct = function
  | Ast.Between _ -> true
  | Ast.Cmp (op, Ast.Col _, Ast.Lit (Ast.L_int _))
  | Ast.Cmp (op, Ast.Lit (Ast.L_int _), Ast.Col _) -> (
    match op with
    | Ast.Ne -> false
    | Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true)
  | Ast.Cmp _ -> false

let range_attr = function
  | Ast.Between (a, _, _) -> Some a
  | Ast.Cmp (_, Ast.Col a, Ast.Lit (Ast.L_int _)) -> Some a
  | Ast.Cmp (_, Ast.Lit (Ast.L_int _), Ast.Col a) -> Some a
  | Ast.Cmp _ -> None

(* Does the WHERE conjunction of [by] guarantee conjunct [p]?  [q_ctx]
   supplies the context in which range conjuncts of [p] are interpreted
   (its [range_of] is compared against [by]'s); any other conjunct must
   appear syntactically in [by]'s WHERE clause. *)
let conjunct_implied ~by q_ctx p =
  if is_range_conjunct p then
    match range_attr p with
    | Some a ->
      (* q guarantees p iff q's allowed range for the attribute lies inside
         the range p allows. *)
      let allowed_by_p = Analysis.range_of { q_ctx with Ast.where = [ p ] } a in
      let allowed_by_q = Analysis.range_of by a in
      Interval.contains allowed_by_p allowed_by_q
    | None -> List.exists (Ast.equal_predicate p) by.Ast.where
  else List.exists (Ast.equal_predicate p) by.Ast.where

let where_implies stronger weaker =
  List.for_all (conjunct_implied ~by:stronger weaker) weaker.Ast.where

let residual ~of_ ~given =
  List.filter (fun p -> not (conjunct_implied ~by:given of_ p)) of_.Ast.where
