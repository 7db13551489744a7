module Ast = Qt_sql.Ast
module Lexer = Qt_sql.Lexer
module Parser = Qt_sql.Parser
module Analysis = Qt_sql.Analysis
module Interval = Qt_util.Interval

let quick = Helpers.quick
let parse = Qt_sql.Parser.parse

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "SELECT a.b, 42 <= -7 <> 'x y' ( * )" in
  Alcotest.(check int) "token count" 14 (List.length toks);
  (match toks with
  | Lexer.T_ident "SELECT"
    :: Lexer.T_ident "a"
    :: Lexer.T_dot
    :: Lexer.T_ident "b"
    :: Lexer.T_comma
    :: Lexer.T_int 42
    :: Lexer.T_le
    :: Lexer.T_int (-7)
    :: Lexer.T_ne
    :: Lexer.T_string "x y"
    :: _ ->
    ()
  | _ -> Alcotest.fail "unexpected token stream");
  (match Lexer.tokenize "1.5 >= !=" with
  | [ Lexer.T_float 1.5; Lexer.T_ge; Lexer.T_ne; Lexer.T_eof ] -> ()
  | _ -> Alcotest.fail "floats / != mislexed");
  (* Scientific notation round-trips printed floats. *)
  match Lexer.tokenize "1e-06 2.5E+3 7e2" with
  | [ Lexer.T_float a; Lexer.T_float b; Lexer.T_float c; Lexer.T_eof ] ->
    Alcotest.(check (float 1e-12)) "neg exponent" 1e-6 a;
    Alcotest.(check (float 1e-9)) "pos exponent" 2500. b;
    Alcotest.(check (float 1e-9)) "bare exponent" 700. c
  | _ -> Alcotest.fail "scientific notation mislexed"

let test_lexer_errors () =
  Alcotest.check_raises "unterminated string"
    (Lexer.Error ("unterminated string literal", 0))
    (fun () -> ignore (Lexer.tokenize "'oops"));
  match Lexer.tokenize "a # b" with
  | exception Lexer.Error (_, 2) -> ()
  | exception Lexer.Error (_, p) -> Alcotest.failf "wrong position %d" p
  | _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let q = parse "SELECT c.custname FROM customer c WHERE c.custid = 5" in
  Alcotest.(check int) "one table" 1 (List.length q.Ast.from);
  Alcotest.(check int) "one conjunct" 1 (List.length q.Ast.where);
  Alcotest.(check bool) "not distinct" false q.Ast.distinct

let test_parse_full () =
  let q =
    parse
      "SELECT DISTINCT c.office, SUM(il.charge), COUNT(*) \
       FROM customer c, invoiceline il \
       WHERE c.custid = il.custid AND c.custid BETWEEN 10 AND 90 AND il.charge > 5 \
       GROUP BY c.office ORDER BY c.office DESC"
  in
  Alcotest.(check bool) "distinct" true q.Ast.distinct;
  Alcotest.(check int) "three items" 3 (List.length q.Ast.select);
  Alcotest.(check int) "three conjuncts" 3 (List.length q.Ast.where);
  Alcotest.(check int) "group" 1 (List.length q.Ast.group_by);
  (match q.Ast.order_by with
  | [ (a, Ast.Desc) ] -> Alcotest.(check string) "order attr" "office" a.Ast.name
  | _ -> Alcotest.fail "order_by wrong")

let test_parse_unqualified_resolution () =
  let q = parse "SELECT custname FROM customer WHERE custid = 1" in
  (match q.Ast.select with
  | [ Ast.Sel_col a ] -> Alcotest.(check string) "resolved" "customer" a.Ast.rel
  | _ -> Alcotest.fail "select shape");
  (* Ambiguous bare column with two tables must fail. *)
  match parse "SELECT custid FROM customer c, invoiceline il" with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail "ambiguity not detected"

let test_parse_errors () =
  let bad =
    [
      "SELECT";
      "SELECT x FROM";
      "SELECT x FROM t WHERE";
      "SELECT x FROM t t2 t3";
      "SELECT x FROM t WHERE x BETWEEN 5 AND 1";
      "SELECT x FROM t WHERE BETWEEN 1 AND 2";
      "SELECT x FROM t, t";
      "SELECT a.x FROM t";
      "FROM t SELECT x";
      "SELECT x FROM t extra garbage ,";
      "SELECT x FROM t WHERE 1 = 2";
      "SELECT x FROM t WHERE 'a' <> 'b'";
    ]
  in
  List.iter
    (fun sql ->
      match Parser.parse_result sql with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad SQL: %s" sql)
    bad

(* DISTINCT merges rows that may differ on a key outside the SELECT list,
   so ordering by such a key is rejected; a selected key, or one under a
   selected star, still parses. *)
let test_parse_distinct_order_by () =
  (match
     Parser.parse_result
       "SELECT DISTINCT c.custname FROM customer c WHERE c.custid < 50 \
        ORDER BY c.office"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted DISTINCT ordered by an unselected key");
  let q =
    parse
      "SELECT DISTINCT c.custname, c.office FROM customer c WHERE c.custid < 50 \
       ORDER BY c.office DESC, c.custname"
  in
  Alcotest.(check int) "two order keys" 2 (List.length q.Ast.order_by);
  let q = parse "SELECT DISTINCT c.* FROM customer c ORDER BY c.office" in
  Alcotest.(check int) "star covers the key" 1 (List.length q.Ast.order_by)

let test_parse_alias_star () =
  let q = parse "SELECT t.* FROM t WHERE t.x = 1" in
  match q.Ast.select with
  | [ Ast.Sel_col a ] -> Alcotest.(check string) "star" "*" a.Ast.name
  | _ -> Alcotest.fail "star witness not parsed"

let test_print_parse_roundtrip_cases () =
  let cases =
    [
      "SELECT a.x FROM t a WHERE a.y < 0.000001 AND a.z > 123456.789012";
      "SELECT c.custname FROM customer c";
      "SELECT DISTINCT c.office FROM customer c WHERE c.custid BETWEEN 1 AND 5";
      "SELECT SUM(il.charge), COUNT(*) FROM invoiceline il GROUP BY il.custid";
      "SELECT a.x FROM t a, t b WHERE a.x = b.x AND a.y < 3.5 AND b.z = 'str' \
       ORDER BY a.x DESC";
    ]
  in
  List.iter
    (fun sql ->
      let q = parse sql in
      let q2 = parse (Analysis.to_string q) in
      Helpers.check_query sql q q2)
    cases

(* Random query generator for the roundtrip property. *)
let query_gen =
  QCheck2.Gen.(
    let ident = oneofl [ "alpha"; "beta"; "gamma"; "delta" ] in
    let attr_name = oneofl [ "x"; "y"; "z" ] in
    let* n_tables = int_range 1 3 in
    let tables =
      List.init n_tables (fun i ->
          { Ast.relation = List.nth [ "alpha"; "beta"; "gamma"; "delta" ] i;
            alias = Printf.sprintf "t%d" i })
    in
    let attr_gen =
      let* t = int_range 0 (n_tables - 1) in
      let* name = attr_name in
      return { Ast.rel = (List.nth tables t).Ast.alias; name }
    in
    let lit_gen =
      oneof
        [
          map (fun n -> Ast.L_int n) (int_range (-50) 50);
          map (fun s -> Ast.L_string s) ident;
        ]
    in
    let pred_gen =
      oneof
        [
          (let* a = attr_gen in
           let* b = attr_gen in
           let* op = oneofl [ Ast.Eq; Ast.Lt; Ast.Ge ] in
           return (Ast.Cmp (op, Ast.Col a, Ast.Col b)));
          (let* a = attr_gen in
           let* l = lit_gen in
           return (Ast.Cmp (Ast.Eq, Ast.Col a, Ast.Lit l)));
          (let* a = attr_gen in
           let* lo = int_range (-20) 20 in
           let* w = int_range 0 30 in
           return (Ast.Between (a, lo, lo + w)));
        ]
    in
    let* n_select = int_range 1 3 in
    let* select = list_repeat n_select (map (fun a -> Ast.Sel_col a) attr_gen) in
    let* n_where = int_range 0 3 in
    let* where = list_repeat n_where pred_gen in
    let* order = opt attr_gen in
    return
      {
        Ast.distinct = false;
        select;
        from = tables;
        where;
        group_by = [];
        order_by = (match order with None -> [] | Some a -> [ (a, Ast.Asc) ]);
      })

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:300 query_gen (fun q ->
      let text = Analysis.to_string q in
      match Parser.parse_result text with
      | Error e -> QCheck2.Test.fail_reportf "did not reparse %s: %s" text e
      | Ok q2 -> Ast.equal q q2)

(* A [Format] printer of the SQL text, written clause by clause: the
   oracle [Ast.to_string] must match byte for byte, since signatures,
   wire sizes and so every golden report are made of its bytes. *)
module Oracle = struct
  let pp_attr ppf (a : Ast.attr) = Format.fprintf ppf "%s.%s" a.rel a.name

  let pp_literal ppf = function
    | Ast.L_int n -> Format.fprintf ppf "%d" n
    | Ast.L_float f -> Format.fprintf ppf "%.12g" f
    | Ast.L_string s -> Format.fprintf ppf "'%s'" s

  let string_of_cmp = function
    | Ast.Eq -> "="
    | Ast.Ne -> "<>"
    | Ast.Lt -> "<"
    | Ast.Le -> "<="
    | Ast.Gt -> ">"
    | Ast.Ge -> ">="

  let pp_scalar ppf = function
    | Ast.Col a -> pp_attr ppf a
    | Ast.Lit l -> pp_literal ppf l

  let pp_predicate ppf = function
    | Ast.Cmp (op, l, r) ->
      Format.fprintf ppf "%a %s %a" pp_scalar l (string_of_cmp op) pp_scalar r
    | Ast.Between (a, lo, hi) ->
      Format.fprintf ppf "%a BETWEEN %d AND %d" pp_attr a lo hi

  let string_of_agg = function
    | Ast.Count -> "COUNT"
    | Ast.Sum -> "SUM"
    | Ast.Avg -> "AVG"
    | Ast.Min -> "MIN"
    | Ast.Max -> "MAX"

  let pp_select_item ppf = function
    | Ast.Sel_col a -> pp_attr ppf a
    | Ast.Sel_agg (f, None) -> Format.fprintf ppf "%s(*)" (string_of_agg f)
    | Ast.Sel_agg (f, Some a) ->
      Format.fprintf ppf "%s(%a)" (string_of_agg f) pp_attr a

  let pp_table_ref ppf (r : Ast.table_ref) =
    if String.equal r.relation r.alias then
      Format.pp_print_string ppf r.relation
    else Format.fprintf ppf "%s %s" r.relation r.alias

  let pp_sep sep ppf () = Format.pp_print_string ppf sep

  let pp ppf (q : Ast.t) =
    Format.fprintf ppf "SELECT %s%a FROM %a"
      (if q.distinct then "DISTINCT " else "")
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_select_item)
      q.select
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_table_ref)
      q.from;
    if q.where <> [] then
      Format.fprintf ppf " WHERE %a"
        (Format.pp_print_list ~pp_sep:(pp_sep " AND ") pp_predicate)
        q.where;
    if q.group_by <> [] then
      Format.fprintf ppf " GROUP BY %a"
        (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_attr)
        q.group_by;
    if q.order_by <> [] then
      Format.fprintf ppf " ORDER BY %a"
        (Format.pp_print_list ~pp_sep:(pp_sep ", ") (fun ppf (a, o) ->
             Format.fprintf ppf "%a%s" pp_attr a
               (match o with Ast.Asc -> "" | Ast.Desc -> " DESC")))
        q.order_by

  let to_string q = Format.asprintf "%a" pp q
end

(* Every clause and literal shape the printer knows: DISTINCT,
   COUNT-star and aggregates over a column, aliases equal to or different
   from the relation, BETWEEN, ORDER BY DESC, strings and floats at the
   edges of [%.12g]. *)
let full_query_gen =
  QCheck2.Gen.(
    let relation = oneofl [ "alpha"; "beta"; "customer" ] in
    let table_gen =
      let* relation = relation in
      let* alias = oneofl [ None; Some "a"; Some "t1"; Some "beta" ] in
      return (Ast.table ?alias relation)
    in
    let* from = list_size (int_range 1 3) table_gen in
    let alias_gen = map (fun (r : Ast.table_ref) -> r.alias) (oneofl from) in
    let attr_gen =
      let* rel = alias_gen in
      let* name = oneofl [ "x"; "custid"; "charge" ] in
      return { Ast.rel; name }
    in
    let float_gen =
      oneof
        [
          oneofl [ -0.; 0.; 1e-300; 1e22; -1e22; 0.1; -2.5; 123456.789012345 ];
          float_range (-1e6) 1e6;
          float;
        ]
    in
    let lit_gen =
      oneof
        [
          map (fun n -> Ast.L_int n) (int_range (-1000) 1000);
          map (fun f -> Ast.L_float f) float_gen;
          map (fun s -> Ast.L_string s) (oneofl [ ""; "str"; "a b"; "x'y" ]);
        ]
    in
    let scalar_gen =
      oneof [ map (fun a -> Ast.Col a) attr_gen; map (fun l -> Ast.Lit l) lit_gen ]
    in
    let pred_gen =
      oneof
        [
          (let* op = oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
           let* l = scalar_gen in
           let* r = scalar_gen in
           return (Ast.Cmp (op, l, r)));
          (let* a = attr_gen in
           let* lo = int_range (-50) 50 in
           let* hi = int_range (-50) 50 in
           return (Ast.Between (a, lo, hi)));
        ]
    in
    let item_gen =
      oneof
        [
          map (fun a -> Ast.Sel_col a) attr_gen;
          (let* f = oneofl [ Ast.Count; Ast.Sum; Ast.Avg; Ast.Min; Ast.Max ] in
           let* arg = opt attr_gen in
           return (Ast.Sel_agg (f, arg)));
        ]
    in
    let* distinct = bool in
    let* select = list_size (int_range 1 4) item_gen in
    let* where = list_size (int_range 0 4) pred_gen in
    let* group_by = list_size (int_range 0 2) attr_gen in
    let* order_by =
      list_size (int_range 0 2) (pair attr_gen (oneofl [ Ast.Asc; Ast.Desc ]))
    in
    return { Ast.distinct; select; from; where; group_by; order_by })

let prop_printer_matches_oracle =
  QCheck2.Test.make ~name:"buffer printer matches the Format oracle" ~count:500
    ~print:Oracle.to_string full_query_gen (fun q ->
      let got = Ast.to_string q and want = Oracle.to_string q in
      if String.equal got want then true
      else QCheck2.Test.fail_reportf "printed %S, oracle %S" got want)

(* A query the parser produced prints back to itself: parse the oracle's
   text where the parser accepts it, then print and parse again. *)
let prop_parsed_roundtrip =
  QCheck2.Test.make ~name:"parser-produced queries round-trip" ~count:500
    ~print:Oracle.to_string full_query_gen (fun q ->
      match Parser.parse_result (Oracle.to_string q) with
      | Error _ -> true
      | Ok p -> (
        let text = Ast.to_string p in
        match Parser.parse_result text with
        | Error e -> QCheck2.Test.fail_reportf "did not reparse %s: %s" text e
        | Ok p2 -> Ast.equal p p2))

let test_printer_edge_cases () =
  let t = Ast.table "customer" and c = Ast.attr "customer" "custid" in
  let with_lit l =
    Ast.query ~select:[ Ast.Sel_col c ] ~from:[ t ]
      ~where:[ Ast.eq_const c l ] ()
  in
  List.iter
    (fun f ->
      let q = with_lit (Ast.L_float f) in
      Alcotest.(check string)
        (Printf.sprintf "float %h" f) (Oracle.to_string q) (Ast.to_string q))
    [ -0.; 0.; 1e-300; 1e22; -3.25; nan; infinity; neg_infinity ];
  Alcotest.(check string)
    "-0. keeps its sign" "SELECT customer.custid FROM customer WHERE \
                          customer.custid = -0"
    (Ast.to_string (with_lit (Ast.L_float (-0.))));
  let p = Ast.Between (c, 1, 9) in
  Alcotest.(check string)
    "pp_predicate" "customer.custid BETWEEN 1 AND 9"
    (Format.asprintf "%a" Ast.pp_predicate p)

(* [dedup_semantic] keeps the first query of each class, in order. *)
let test_dedup_semantic () =
  let a = parse "SELECT t.x, t.y FROM t WHERE t.x = 1 AND t.y BETWEEN 2 AND 9" in
  let b = parse "SELECT t.y, t.x FROM t WHERE t.y BETWEEN 2 AND 9 AND t.x = 1" in
  let c = parse "SELECT t.x FROM t WHERE t.x >= 3 AND t.x <= 7" in
  let d = parse "SELECT t.x FROM t WHERE t.x BETWEEN 3 AND 7" in
  let qs = [ a; c; b; d; a ] in
  let by_pairs = Qt_util.Listx.dedup Analysis.equal_semantic qs in
  let got = Analysis.dedup_semantic qs in
  Alcotest.(check int) "two classes" 2 (List.length got);
  Alcotest.(check bool)
    "same list as pairwise dedup" true
    (List.for_all2 ( == ) by_pairs got)

(* Fuzz: the parser must never raise anything but Parser.Error. *)
let prop_parser_total =
  let fragment =
    QCheck2.Gen.oneofl
      [
        "SELECT"; "FROM"; "WHERE"; "GROUP"; "ORDER"; "BY"; "AND"; "BETWEEN";
        "t"; "a.b"; ","; "."; "("; ")"; "*"; "="; "<"; ">="; "<>"; "42"; "1.5";
        "'str"; "'str'"; "COUNT"; "SUM"; "-7"; "x";
      ]
  in
  QCheck2.Test.make ~name:"parser totality on token soup" ~count:500
    QCheck2.Gen.(list_size (int_range 0 12) fragment)
    (fun pieces ->
      let input = String.concat " " pieces in
      match Parser.parse_result input with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Analysis                                                             *)
(* ------------------------------------------------------------------ *)

let join2 =
  parse
    "SELECT c.office, il.charge FROM customer c, invoiceline il \
     WHERE c.custid = il.custid AND c.office = 3 AND il.charge > 10"

let test_analysis_classify () =
  Alcotest.(check (list string)) "aliases" [ "c"; "il" ] (Analysis.aliases join2);
  Alcotest.(check int) "join preds" 1 (List.length (Analysis.join_predicates join2));
  Alcotest.(check int) "selections" 2
    (List.length (Analysis.selection_predicates join2));
  Alcotest.(check bool) "no aggregate" false (Analysis.has_aggregate join2);
  Alcotest.(check int) "edges" 1 (List.length (Analysis.join_graph join2));
  Alcotest.(check bool) "connected" true (Analysis.connected join2 [ "c"; "il" ]);
  Alcotest.(check bool) "singleton connected" true (Analysis.connected join2 [ "c" ]);
  Alcotest.(check bool) "empty not connected" false (Analysis.connected join2 [])

let test_analysis_restrict () =
  let r = Analysis.restrict join2 [ "c" ] in
  Alcotest.(check int) "one table" 1 (List.length r.Ast.from);
  (* Must keep c.office (output) and c.custid (crossing join column). *)
  let names =
    List.filter_map
      (function Ast.Sel_col a -> Some a.Ast.name | Ast.Sel_agg _ -> None)
      r.Ast.select
  in
  Alcotest.(check bool) "office kept" true (List.mem "office" names);
  Alcotest.(check bool) "custid kept" true (List.mem "custid" names);
  Alcotest.(check int) "only c preds" 1 (List.length r.Ast.where);
  (* Restricting to an unknown alias must fail loudly. *)
  match Analysis.restrict join2 [ "nope" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restrict accepted unknown alias"

let test_analysis_range_of () =
  let q =
    parse
      "SELECT t.x FROM t WHERE t.x BETWEEN 0 AND 100 AND t.x >= 10 AND t.x < 50"
  in
  let r = Analysis.range_of q { Ast.rel = "t"; name = "x" } in
  Alcotest.(check int) "lo" 10 r.Interval.lo;
  Alcotest.(check int) "hi" 49 r.Interval.hi;
  let unconstrained = Analysis.range_of q { Ast.rel = "t"; name = "y" } in
  Alcotest.(check bool) "full for free attr" true
    (Interval.equal Interval.full unconstrained)

let test_analysis_range_closure () =
  let q =
    parse
      "SELECT a.x FROM t a, t b, t c \
       WHERE a.x = b.x AND b.x = c.x AND a.x BETWEEN 10 AND 90 AND c.x < 50"
  in
  let cls = Analysis.equiv_attrs q { Ast.rel = "b"; name = "x" } in
  Alcotest.(check int) "three-member class" 3 (List.length cls);
  (* b.x itself is unrestricted, but the chain bounds it to [10,49]. *)
  let r = Analysis.range_of_closure q { Ast.rel = "b"; name = "x" } in
  Alcotest.(check int) "closure lo" 10 r.Interval.lo;
  Alcotest.(check int) "closure hi" 49 r.Interval.hi;
  (* Unconnected attribute: closure adds nothing. *)
  let free = Analysis.range_of_closure q { Ast.rel = "a"; name = "y" } in
  Alcotest.(check bool) "free attr stays full" true
    (Interval.equal Interval.full free)

let test_analysis_add_range () =
  let q = parse "SELECT t.x FROM t" in
  let a = { Ast.rel = "t"; name = "x" } in
  let q1 = Analysis.add_range q a (Interval.make 5 9) in
  Alcotest.(check int) "one conjunct" 1 (List.length q1.Ast.where);
  (* Adding a superset of the current range is a no-op. *)
  let q2 = Analysis.add_range q1 a (Interval.make 0 100) in
  Alcotest.(check int) "no-op" 1 (List.length q2.Ast.where)

let test_analysis_normalize () =
  let a = parse "SELECT t.x, t.y FROM t WHERE t.x = 1 AND t.y BETWEEN 2 AND 9" in
  let b = parse "SELECT t.y, t.x FROM t WHERE t.y BETWEEN 2 AND 9 AND t.x = 1" in
  Alcotest.(check bool) "order-insensitive" true (Analysis.equal_semantic a b);
  Alcotest.(check string) "same signature" (Analysis.signature a)
    (Analysis.signature b);
  let c = parse "SELECT t.x FROM t WHERE t.x >= 3 AND t.x <= 7" in
  let d = parse "SELECT t.x FROM t WHERE t.x BETWEEN 3 AND 7" in
  Alcotest.(check bool) "ranges merged" true (Analysis.equal_semantic c d)

let test_analysis_rename () =
  let q = parse "SELECT a.x FROM t a, t b WHERE a.x = b.x" in
  let r = Analysis.rename_aliases [ ("a", "u"); ("b", "w") ] q in
  Alcotest.(check (list string)) "renamed" [ "u"; "w" ] (Analysis.aliases r);
  match r.Ast.where with
  | [ Ast.Cmp (Ast.Eq, Ast.Col x, Ast.Col y) ] ->
    Alcotest.(check string) "lhs" "u" x.Ast.rel;
    Alcotest.(check string) "rhs" "w" y.Ast.rel
  | _ -> Alcotest.fail "predicate not renamed"

let suite =
  ( "sql",
    [
      quick "lexer tokens" test_lexer_tokens;
      quick "lexer errors" test_lexer_errors;
      quick "parse simple" test_parse_simple;
      quick "parse full" test_parse_full;
      quick "parse unqualified" test_parse_unqualified_resolution;
      quick "parse errors" test_parse_errors;
      quick "parse distinct order by" test_parse_distinct_order_by;
      quick "parse alias star" test_parse_alias_star;
      quick "roundtrip cases" test_print_parse_roundtrip_cases;
      QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
      QCheck_alcotest.to_alcotest prop_parser_total;
      QCheck_alcotest.to_alcotest prop_printer_matches_oracle;
      QCheck_alcotest.to_alcotest prop_parsed_roundtrip;
      quick "printer edge cases" test_printer_edge_cases;
      quick "analysis dedup_semantic" test_dedup_semantic;
      quick "analysis classify" test_analysis_classify;
      quick "analysis restrict" test_analysis_restrict;
      quick "analysis range_of" test_analysis_range_of;
      quick "analysis range closure" test_analysis_range_closure;
      quick "analysis add_range" test_analysis_add_range;
      quick "analysis normalize" test_analysis_normalize;
      quick "analysis rename" test_analysis_rename;
    ] )
