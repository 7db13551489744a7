exception Error of string

(* Token-stream cursor.  The list is small (queries are short), so a
   mutable reference into a list is simpler than an index into an array. *)
type state = { mutable toks : Lexer.token list }

let fail msg = raise (Error msg)

let peek st = match st.toks with [] -> Lexer.T_eof | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let next st =
  let t = peek st in
  advance st;
  t

let keyword_matches kw = function
  | Lexer.T_ident s -> String.lowercase_ascii s = String.lowercase_ascii kw
  | _ -> false

let accept_keyword st kw =
  if keyword_matches kw (peek st) then (advance st; true) else false

let expect_keyword st kw =
  if not (accept_keyword st kw) then fail (Printf.sprintf "expected keyword %s" kw)

let expect st tok what =
  if peek st = tok then advance st else fail (Printf.sprintf "expected %s" what)

let is_reserved s =
  match String.lowercase_ascii s with
  | "select" | "distinct" | "from" | "where" | "group" | "order" | "by" | "and"
  | "between" | "asc" | "desc" | "count" | "sum" | "avg" | "min" | "max" ->
    true
  | _ -> false

let ident st =
  match next st with
  | Lexer.T_ident s when not (is_reserved s) -> s
  | t -> fail (Format.asprintf "expected identifier, got %a" Lexer.pp_token t)

let agg_of_ident s =
  match String.lowercase_ascii s with
  | "count" -> Some Ast.Count
  | "sum" -> Some Ast.Sum
  | "avg" -> Some Ast.Avg
  | "min" -> Some Ast.Min
  | "max" -> Some Ast.Max
  | _ -> None

(* Attributes may be written unqualified; resolution against the FROM list
   happens after parsing, in [resolve]. *)
let attr st =
  let first = ident st in
  if peek st = Lexer.T_dot then begin
    advance st;
    (* [alias.*] appears in traded sub-queries as a whole-row witness. *)
    if peek st = Lexer.T_star then begin
      advance st;
      { Ast.rel = first; name = "*" }
    end
    else
      let name = ident st in
      { Ast.rel = first; name }
  end
  else { Ast.rel = ""; name = first }

let select_item st =
  match peek st with
  | Lexer.T_ident s when agg_of_ident s <> None -> begin
    (* Could still be a plain column whose name collides with an aggregate
       keyword; those are reserved, so treat as aggregate. *)
    advance st;
    let fn = Option.get (agg_of_ident s) in
    expect st Lexer.T_lparen "(";
    let arg =
      if peek st = Lexer.T_star then (advance st; None) else Some (attr st)
    in
    expect st Lexer.T_rparen ")";
    Ast.Sel_agg (fn, arg)
  end
  | _ -> Ast.Sel_col (attr st)

let rec comma_separated st parse_one =
  let first = parse_one st in
  if peek st = Lexer.T_comma then begin
    advance st;
    first :: comma_separated st parse_one
  end
  else [ first ]

let table_ref st =
  let relation = ident st in
  match peek st with
  | Lexer.T_ident s when not (is_reserved s) ->
    advance st;
    { Ast.relation; alias = s }
  | _ -> { Ast.relation; alias = relation }

let literal st =
  match next st with
  | Lexer.T_int n -> Ast.L_int n
  | Lexer.T_float f -> Ast.L_float f
  | Lexer.T_string s -> Ast.L_string s
  | t -> fail (Format.asprintf "expected literal, got %a" Lexer.pp_token t)

let scalar st =
  match peek st with
  | Lexer.T_int _ | Lexer.T_float _ | Lexer.T_string _ -> Ast.Lit (literal st)
  | _ -> Ast.Col (attr st)

let cmp_of_token = function
  | Lexer.T_eq -> Some Ast.Eq
  | Lexer.T_ne -> Some Ast.Ne
  | Lexer.T_lt -> Some Ast.Lt
  | Lexer.T_le -> Some Ast.Le
  | Lexer.T_gt -> Some Ast.Gt
  | Lexer.T_ge -> Some Ast.Ge
  | _ -> None

let int_literal st =
  match next st with
  | Lexer.T_int n -> n
  | t -> fail (Format.asprintf "expected integer, got %a" Lexer.pp_token t)

let predicate st =
  let lhs = scalar st in
  if keyword_matches "between" (peek st) then begin
    advance st;
    let a =
      match lhs with
      | Ast.Col a -> a
      | Ast.Lit _ -> fail "BETWEEN requires an attribute on the left"
    in
    let lo = int_literal st in
    expect_keyword st "and";
    let hi = int_literal st in
    if lo > hi then fail "BETWEEN with empty range";
    Ast.Between (a, lo, hi)
  end
  else
    match cmp_of_token (peek st) with
    | Some op -> (
      advance st;
      let rhs = scalar st in
      match (lhs, rhs) with
      | Ast.Lit _, Ast.Lit _ ->
        (* Constant predicates would be silently dropped by the predicate
           classifiers downstream (they mention no alias); refuse them
           here instead. *)
        fail "constant predicates (literal op literal) are not supported"
      | (Ast.Col _ | Ast.Lit _), _ -> Ast.Cmp (op, lhs, rhs))
    | None -> fail "expected comparison operator or BETWEEN"

let order_item st =
  let a = attr st in
  if accept_keyword st "desc" then (a, Ast.Desc)
  else begin
    ignore (accept_keyword st "asc");
    (a, Ast.Asc)
  end

(* Resolve unqualified attributes.  With a single FROM entry every bare
   column belongs to it; with several, bare columns are ambiguous. *)
let resolve_attr from (a : Ast.attr) =
  if a.rel <> "" then begin
    if not (List.exists (fun (r : Ast.table_ref) -> r.alias = a.rel) from) then
      fail (Printf.sprintf "unknown alias %s" a.rel);
    a
  end
  else
    match from with
    | [ (r : Ast.table_ref) ] -> { a with rel = r.alias }
    | _ -> fail (Printf.sprintf "ambiguous unqualified column %s" a.name)

let resolve_scalar from = function
  | Ast.Col a -> Ast.Col (resolve_attr from a)
  | Ast.Lit _ as s -> s

let resolve_predicate from = function
  | Ast.Cmp (op, l, r) -> Ast.Cmp (op, resolve_scalar from l, resolve_scalar from r)
  | Ast.Between (a, lo, hi) -> Ast.Between (resolve_attr from a, lo, hi)

let resolve_select_item from = function
  | Ast.Sel_col a -> Ast.Sel_col (resolve_attr from a)
  | Ast.Sel_agg (fn, arg) -> Ast.Sel_agg (fn, Option.map (resolve_attr from) arg)

let parse input =
  let st =
    try { toks = Lexer.tokenize input }
    with Lexer.Error (msg, pos) -> fail (Printf.sprintf "%s at offset %d" msg pos)
  in
  expect_keyword st "select";
  let distinct = accept_keyword st "distinct" in
  let select = comma_separated st select_item in
  expect_keyword st "from";
  let from = comma_separated st table_ref in
  let aliases = List.map (fun (r : Ast.table_ref) -> r.alias) from in
  let distinct_aliases = Qt_util.Listx.dedup String.equal aliases in
  if List.length distinct_aliases <> List.length aliases then
    fail "duplicate alias in FROM clause";
  let where =
    if accept_keyword st "where" then begin
      let first = predicate st in
      let rec more acc =
        if accept_keyword st "and" then more (predicate st :: acc) else List.rev acc
      in
      more [ first ]
    end
    else []
  in
  let group_by =
    if accept_keyword st "group" then begin
      expect_keyword st "by";
      comma_separated st attr
    end
    else []
  in
  let order_by =
    if accept_keyword st "order" then begin
      expect_keyword st "by";
      comma_separated st order_item
    end
    else []
  in
  (match peek st with
  | Lexer.T_eof -> ()
  | t -> fail (Format.asprintf "trailing input: %a" Lexer.pp_token t));
  let q =
    {
      Ast.distinct;
      select = List.map (resolve_select_item from) select;
      from;
      where = List.map (resolve_predicate from) where;
      group_by = List.map (resolve_attr from) group_by;
      order_by = List.map (fun (a, o) -> (resolve_attr from a, o)) order_by;
    }
  in
  (* Rows that DISTINCT merges may differ on a key outside the SELECT
     list, so such a key orders nothing (standard SQL rejects it). *)
  let selected (a : Ast.attr) =
    List.mem (Ast.Sel_col a) q.select || List.mem (Ast.Sel_col { a with name = "*" }) q.select
  in
  if q.distinct && not (List.for_all (fun (a, _) -> selected a) q.order_by) then
    fail "ORDER BY key outside the SELECT list of a DISTINCT query";
  q

let parse_result input =
  match parse input with
  | q -> Ok q
  | exception Error msg -> Result.Error msg
