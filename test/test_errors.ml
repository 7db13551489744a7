(* Error-path coverage: every documented @raise and refusal across the
   libraries, so misuse fails loudly instead of silently. *)

module Ast = Qt_sql.Ast
module Interval = Qt_util.Interval
module Rng = Qt_util.Rng
module Value = Qt_exec.Value
module Table = Qt_exec.Table
module Ops = Qt_exec.Ops
module Plan = Qt_optimizer.Plan

let quick = Helpers.quick
let params = Qt_cost.Params.default

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_interval_errors () =
  raises_invalid (fun () -> Interval.make 5 4);
  raises_invalid (fun () -> Interval.split_even (Interval.make 0 9) 0);
  raises_invalid (fun () -> Interval.split_even (Interval.make 0 2) 5)

let test_rng_errors () =
  let rng = Rng.create 1 in
  raises_invalid (fun () -> Rng.int rng 0);
  raises_invalid (fun () -> Rng.int_in rng 5 4);
  raises_invalid (fun () -> Rng.pick rng []);
  raises_invalid (fun () -> Rng.pick_weighted rng [ ("a", 0.) ]);
  raises_invalid (fun () -> Rng.zipf rng ~n:0 ~theta:1.);
  raises_invalid (fun () -> Rng.zipf rng ~n:5 ~theta:(-1.))

let test_histogram_errors () =
  raises_invalid (fun () -> Qt_util.Histogram.create ~lo:5 ~hi:4 ~buckets:4);
  raises_invalid (fun () -> Qt_util.Histogram.create ~lo:0 ~hi:9 ~buckets:0);
  let empty = Qt_util.Histogram.create ~lo:0 ~hi:9 ~buckets:2 in
  raises_invalid (fun () -> Qt_util.Histogram.sample empty (Rng.create 1));
  raises_invalid (fun () -> Qt_util.Histogram.window empty ~prev:[| 0. |])

let test_value_errors () =
  raises_invalid (fun () -> Value.to_float (Value.V_string "x"));
  raises_invalid (fun () -> Value.add (Value.V_string "x") (Value.V_int 1))

let test_table_errors () =
  let a = Table.create [| { Table.alias = "a"; name = "x" } |] [] in
  let b = Table.create [| { Table.alias = "b"; name = "y" } |] [] in
  raises_invalid (fun () -> Table.append a b);
  raises_invalid (fun () -> Table.find_col_exn a ~alias:"a" ~name:"nope")

let test_ops_errors () =
  let t =
    Table.create
      [| { Table.alias = "a"; name = "x" } |]
      [ [| Value.V_int 1 |] ]
  in
  (* Plain column not in the grouping list. *)
  raises_invalid (fun () ->
      Ops.aggregate t ~group_by:[] [ Ast.col "a" "x" ]);
  (* SUM without argument is not part of the subset. *)
  raises_invalid (fun () ->
      Ops.aggregate t ~group_by:[] [ Ast.Sel_agg (Ast.Sum, None) ])

let test_engine_rename_mismatch () =
  let federation = Helpers.telecom_federation ~nodes:2 ~partitions:1 () in
  let store = Qt_exec.Store.generate ~seed:1 federation in
  let remote =
    Plan.Remote
      {
        Plan.seller = 0;
        query = Helpers.parse "SELECT c.custid, c.office FROM customer c";
        query_sig =
          Qt_sql.Analysis.Sig.of_ast
            (Helpers.parse "SELECT c.custid, c.office FROM customer c");
        remote_rows = 10.;
        remote_row_bytes = 16;
        delivered_cost = Qt_cost.Cost.zero;
        rename = Some [ ("c", "only_one_column") ];
        imports = [];
      }
  in
  raises_invalid (fun () -> Qt_exec.Engine.run store federation remote)

let test_node_errors () =
  raises_invalid (fun () ->
      Qt_catalog.Node.make ~cpu_factor:0. ~id:1 ~name:"bad" ~fragments:[] ());
  raises_invalid (fun () ->
      Qt_catalog.Node.make
        ~capabilities:
          { Qt_catalog.Node.max_join_relations = 0; can_aggregate = true; can_sort = true }
        ~id:1 ~name:"bad" ~fragments:[] ())

let test_fragment_errors () =
  raises_invalid (fun () ->
      Qt_catalog.Fragment.make ~rel:"r" ~range:Interval.full ~rows:(-1))

let test_workload_errors () =
  raises_invalid (fun () ->
      Qt_sim.Workload.chain_query ~joins:5 ~relations:3 ());
  raises_invalid (fun () ->
      Qt_sim.Workload.star_query ~dimensions:2 ~group_dim:5 ())

let test_federation_node_lookup () =
  let fed = Helpers.telecom_federation ~nodes:2 () in
  match Qt_catalog.Federation.node fed 99 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown node id accepted"

let suite =
  ( "errors",
    [
      quick "interval errors" test_interval_errors;
      quick "rng errors" test_rng_errors;
      quick "histogram errors" test_histogram_errors;
      quick "value errors" test_value_errors;
      quick "table errors" test_table_errors;
      quick "ops errors" test_ops_errors;
      quick "engine rename mismatch" test_engine_rename_mismatch;
      quick "node errors" test_node_errors;
      quick "fragment errors" test_fragment_errors;
      quick "workload errors" test_workload_errors;
      quick "federation lookup" test_federation_node_lookup;
    ] )
