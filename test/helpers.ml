(* Shared fixtures and assertions for the test suite. *)

module Ast = Qt_sql.Ast
module Interval = Qt_util.Interval

let parse = Qt_sql.Parser.parse

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_query msg expected actual =
  Alcotest.(check string)
    msg
    (Qt_sql.Analysis.signature expected)
    (Qt_sql.Analysis.signature actual)

(* A two-relation schema matching the paper's telecom scenario, small
   enough to execute. *)
let telecom_federation ?(nodes = 8) ?(partitions = 4) ?(replicas = 1)
    ?(with_views = false) () =
  Qt_sim.Generator.telecom ~nodes ~customers:800 ~invoice_lines:4000
    ~key_domain:800
    ~placement:{ Qt_sim.Generator.partitions; replicas }
    ~with_views ()

let chain_federation ?(nodes = 6) ?(relations = 3) ?(partitions = 3) ?(replicas = 1)
    ?(co_located = true) () =
  Qt_sim.Generator.chain ~rows:600 ~key_domain:600 ~co_located ~nodes ~relations
    ~placement:{ Qt_sim.Generator.partitions; replicas }
    ()

(* The paper's revenue query, scaled to the small key domain. *)
let revenue_query ?range () =
  Qt_sim.Workload.telecom_revenue_by_office ?custid_range:range ()

let tables_equal_po a b =
  (* Positional, order-insensitive multiset equality: the oracle and an
     optimized plan may name aggregate columns differently but must agree
     cell-for-cell. *)
  let sa = Qt_exec.Table.sort_rows a and sb = Qt_exec.Table.sort_rows b in
  Array.length a.Qt_exec.Table.cols = Array.length b.Qt_exec.Table.cols
  && Qt_exec.Table.cardinality a = Qt_exec.Table.cardinality b
  && List.for_all2
       (fun r1 r2 -> Array.for_all2 Qt_exec.Value.equal r1 r2)
       sa.Qt_exec.Table.rows sb.Qt_exec.Table.rows

(* Optimize with QT, execute the plan, and compare against direct global
   evaluation.  The single most important assertion in the repository. *)
let assert_qt_correct ?(seed = 11) ?config federation query =
  let params = Qt_cost.Params.default in
  let config =
    Option.value config ~default:(Qt_core.Trader.default_config params)
  in
  match Qt_core.Trader.optimize config federation query with
  | Error e -> Alcotest.failf "QT failed to optimize: %s" e
  | Ok outcome ->
    let store = Qt_exec.Store.generate ~seed federation in
    Qt_exec.Naive.materialize_views store federation;
    let result = Qt_exec.Engine.run store federation outcome.plan in
    let oracle = Qt_exec.Naive.run_global store query in
    if not (tables_equal_po result oracle) then
      Alcotest.failf
        "QT plan result diverges from oracle for %s@.plan:@.%s@.got %d rows, oracle %d \
         rows"
        (Qt_sql.Analysis.to_string query)
        (Format.asprintf "%a" Qt_optimizer.Plan.pp outcome.plan)
        (Qt_exec.Table.cardinality result)
        (Qt_exec.Table.cardinality oracle);
    outcome

let quick name f = Alcotest.test_case name `Quick f
