(* Transport abstraction and signature-keyed caching: lockstep/DES
   parity, seller bid-cache correctness and invalidation, in-round
   request dedup, the standing-offer re-broadcast memo, and per-phase
   accounting. *)

module Trader = Qt_core.Trader
module Seller = Qt_core.Seller
module Offer = Qt_core.Offer
module Analysis = Qt_sql.Analysis
module Node = Qt_catalog.Node
module Cost = Qt_cost.Cost
open Helpers

let params = Qt_cost.Params.default
let revenue = revenue_query ()

let des_transport ?(seed = 1) (federation : Qt_catalog.Federation.t) =
  let runtime =
    Qt_runtime.Runtime.create ~faults:Qt_runtime.Fault_plan.none ~params ~seed ()
  in
  Qt_runtime.Transport_des.create runtime ~buyer:Trader.buyer_id
    ~nodes:(List.map (fun (n : Node.t) -> n.Node.node_id) federation.nodes)

let ok = function
  | Ok o -> o
  | Error e -> Alcotest.failf "optimize failed: %s" e

let purchased_sellers (o : Trader.outcome) =
  List.sort_uniq compare
    (List.map (fun (o : Offer.t) -> o.Offer.seller) o.Trader.purchased)

(* The same trade through both transports: the loop is shared, only the
   execution model differs, and with no faults the models must agree on
   everything the buyer decides (the DES clock model may differ). *)
let test_lockstep_des_parity () =
  let federation = telecom_federation ~nodes:8 ~partitions:4 ~replicas:2 () in
  let config = Trader.default_config params in
  let lock = ok (Trader.optimize config federation revenue) in
  let des =
    ok
      (Trader.optimize ~transport:(des_transport federation) config federation
         revenue)
  in
  Alcotest.(check (float 1e-9))
    "plan cost" lock.Trader.stats.plan_cost des.Trader.stats.plan_cost;
  Alcotest.(check int)
    "iterations" lock.Trader.stats.iterations des.Trader.stats.iterations;
  Alcotest.(check int)
    "queries asked" lock.Trader.stats.queries_asked des.Trader.stats.queries_asked;
  Alcotest.(check int)
    "offers received" lock.Trader.stats.offers_received
    des.Trader.stats.offers_received;
  Alcotest.(check (list int))
    "purchased sellers" (purchased_sellers lock) (purchased_sellers des)

let offer_key (o : Offer.t) =
  Printf.sprintf "%d|%s|%.9f|%.9f" o.Offer.seller
    (Analysis.Sig.to_string o.Offer.query_sig)
    o.quoted o.true_cost

(* A cached respond must replay byte-identical offers and charge (almost)
   no pricing time for a fully warm batch. *)
let test_bid_cache_replays_offers () =
  let federation = telecom_federation () in
  let schema = federation.Qt_catalog.Federation.schema in
  let node = List.hd federation.Qt_catalog.Federation.nodes in
  let config = Seller.default_config params in
  let cache = Seller.cache_create () in
  let cold = Seller.respond ~cache config schema node ~requests:[ Seller.request revenue ] in
  let warm = Seller.respond ~cache config schema node ~requests:[ Seller.request revenue ] in
  Alcotest.(check bool) "some offers" true (cold.Seller.offers <> []);
  Alcotest.(check (list string))
    "identical offers"
    (List.map offer_key cold.Seller.offers)
    (List.map offer_key warm.Seller.offers);
  let s = Seller.cache_stats cache in
  Alcotest.(check int) "one hit" 1 s.Seller.hits;
  Alcotest.(check int) "one miss" 1 s.Seller.misses;
  Alcotest.(check bool)
    "warm batch cheaper than cold"
    true
    (warm.Seller.processing_time < cold.Seller.processing_time)

(* Changing what was priced under — the seller's load or its catalog —
   must invalidate the entry, never replay it. *)
let test_bid_cache_invalidation () =
  let federation = telecom_federation () in
  let schema = federation.Qt_catalog.Federation.schema in
  let node = List.hd federation.Qt_catalog.Federation.nodes in
  let config = Seller.default_config params in
  let cache = Seller.cache_create () in
  ignore (Seller.respond ~cache config schema node ~requests:[ Seller.request revenue ]);
  (* Seller got busy: the cached quote is stale. *)
  ignore
    (Seller.respond ~cache { config with Seller.load = 0.7 } schema node
       ~requests:[ Seller.request revenue ]);
  let s = Seller.cache_stats cache in
  Alcotest.(check int) "load change invalidates" 1 s.Seller.invalidations;
  Alcotest.(check int) "no hit" 0 s.Seller.hits;
  (* Catalog change (a faster machine) fingerprints differently. *)
  ignore
    (Seller.respond ~cache { config with Seller.load = 0.7 } schema
       { node with Node.cpu_factor = node.Node.cpu_factor *. 2. }
       ~requests:[ Seller.request revenue ]);
  let s = Seller.cache_stats cache in
  Alcotest.(check int) "catalog change invalidates" 2 s.Seller.invalidations;
  Alcotest.(check int) "still no hit" 0 s.Seller.hits

(* The node fingerprint must see every fragment: on a 64-fragment node a
   change to the last fragment's rows is a catalog change, so the cached
   bid priced before it must not be replayed. *)
let test_fingerprint_sees_last_fragment () =
  let federation = telecom_federation () in
  let schema = federation.Qt_catalog.Federation.schema in
  let node = List.hd federation.Qt_catalog.Federation.nodes in
  (* Filler of a relation the query does not read, so pricing is the
     same on both catalogs and only the fingerprint can tell them apart. *)
  let filler =
    List.init
      (64 - List.length node.Node.fragments)
      (fun i ->
        Qt_catalog.Fragment.make ~rel:"archive"
          ~range:(Qt_util.Interval.make (10 * i) ((10 * i) + 9))
          ~rows:100)
  in
  let big = { node with Node.fragments = node.Node.fragments @ filler } in
  let changed =
    match List.rev big.Node.fragments with
    | last :: rest ->
      {
        big with
        Node.fragments =
          List.rev
            ({ last with Qt_catalog.Fragment.rows = last.Qt_catalog.Fragment.rows + 1 }
            :: rest);
      }
    | [] -> Alcotest.fail "no fragments"
  in
  Alcotest.(check int) "64 fragments" 64 (List.length big.Node.fragments);
  Alcotest.(check bool)
    "last-fragment change alters the fingerprint" true
    (Node.fingerprint big <> Node.fingerprint changed);
  let config = Seller.default_config params in
  let cache = Seller.cache_create () in
  let ask node =
    ignore (Seller.respond ~cache config schema node ~requests:[ Seller.request revenue ])
  in
  ask big;
  ask changed;
  let s = Seller.cache_stats cache in
  Alcotest.(check int) "cached bid is a miss" 0 s.Seller.hits;
  Alcotest.(check int) "and invalidated" 1 s.Seller.invalidations

(* Signatures and wire sizes travel with requests and offers: a request's
   signature is its query's, and every offer's stored size is its
   query's, whether priced fresh or replayed from the bid cache. *)
let test_signature_and_size_invariants () =
  let federation = telecom_federation ~with_views:true () in
  let caches = Seller.pool_create () in
  let schema = federation.Qt_catalog.Federation.schema in
  let offers_of queries =
    List.concat_map
      (fun (n : Node.t) ->
        (Seller.respond ~cache:(Seller.pool_cache caches n.Node.node_id)
           (Seller.default_config params) schema n
           ~requests:(List.map Seller.request queries))
          .Seller.offers)
      federation.Qt_catalog.Federation.nodes
  in
  let seed = offers_of [ revenue ] in
  let queries =
    revenue
    :: Qt_core.Buyer_analyser.enrich ~schema ~query:revenue ~offers:seed
  in
  List.iter
    (fun q ->
      let r = Seller.request q in
      Alcotest.(check bool)
        "request signature is its query's" true
        (Analysis.Sig.equal r.Seller.signature (Analysis.Sig.of_ast q));
      Alcotest.(check int)
        "request size" (32 + String.length (Qt_sql.Ast.to_string q))
        r.Seller.wire_bytes)
    queries;
  let check_sizes label offers =
    Alcotest.(check bool) (label ^ ": some offers") true (offers <> []);
    List.iter
      (fun (o : Offer.t) ->
        Alcotest.(check int)
          (label ^ ": offer size")
          (64 + String.length (Qt_sql.Ast.to_string o.Offer.query))
          o.Offer.wire_bytes;
        Alcotest.(check bool)
          (label ^ ": offer signature") true
          (Analysis.Sig.equal o.Offer.query_sig (Analysis.Sig.of_ast o.Offer.query)))
      offers
  in
  let before = Seller.pool_stats caches in
  check_sizes "fresh" (offers_of queries);
  check_sizes "replayed" (offers_of queries);
  let after = Seller.pool_stats caches in
  Alcotest.(check bool)
    "replay hit the bid cache" true
    (after.Seller.hits > before.Seller.hits)

(* A trade served from a warm shared pool must reproduce the cold trade
   exactly — the cache may only change who does the arithmetic. *)
let test_warm_trade_identical () =
  let federation = telecom_federation () in
  let config = Trader.default_config params in
  let caches = Seller.pool_create () in
  let cold = ok (Trader.optimize ~caches config federation revenue) in
  let after_cold = Seller.pool_stats caches in
  let warm = ok (Trader.optimize ~caches config federation revenue) in
  let after_warm = Seller.pool_stats caches in
  Alcotest.(check int) "cold trade all misses" 0 after_cold.Seller.hits;
  Alcotest.(check bool)
    "warm trade hits" true
    (after_warm.Seller.hits > after_cold.Seller.hits);
  Alcotest.(check (float 1e-9))
    "same plan cost" cold.Trader.stats.plan_cost warm.Trader.stats.plan_cost;
  Alcotest.(check int)
    "same messages" cold.Trader.stats.messages warm.Trader.stats.messages;
  Alcotest.(check int)
    "same iterations" cold.Trader.stats.iterations warm.Trader.stats.iterations;
  Alcotest.(check bool)
    "warm pricing cheaper" true
    (warm.Trader.phases.pricing.Trader.sim
    < cold.Trader.phases.pricing.Trader.sim)

(* Asking the same query twice in one RFB round must broadcast it once. *)
let test_request_dedup () =
  let federation = telecom_federation () in
  let config = Trader.default_config params in
  let once = ok (Trader.optimize ~requests:[ revenue ] config federation revenue) in
  let twice =
    ok (Trader.optimize ~requests:[ revenue; revenue ] config federation revenue)
  in
  Alcotest.(check int)
    "one dedup" 1 twice.Trader.phases.requests_deduped;
  Alcotest.(check int)
    "same queries asked" once.Trader.stats.queries_asked
    twice.Trader.stats.queries_asked;
  Alcotest.(check int)
    "same messages" once.Trader.stats.messages twice.Trader.stats.messages;
  Alcotest.(check (float 1e-9))
    "same plan cost" once.Trader.stats.plan_cost twice.Trader.stats.plan_cost

(* Re-trading a query whose standing contracts already answer it must not
   re-broadcast: the memo skips the RFB and plans from the pool. *)
let test_standing_offer_memo () =
  let federation = telecom_federation ~nodes:1 ~partitions:1 () in
  let config = Trader.default_config params in
  let first = ok (Trader.optimize config federation revenue) in
  Alcotest.(check bool) "bought something" true (first.Trader.purchased <> []);
  let warm =
    ok
      (Trader.optimize ~standing:first.Trader.purchased config federation revenue)
  in
  Alcotest.(check bool)
    "re-broadcast skipped" true
    (warm.Trader.phases.rebroadcasts_skipped >= 1);
  Alcotest.(check int) "no RFB messages" 0 warm.Trader.stats.messages;
  Alcotest.(check (float 1e-9))
    "same plan cost" first.Trader.stats.plan_cost warm.Trader.stats.plan_cost

(* The phase split must account for the whole trade: message counts and
   simulated time partition the totals. *)
let test_phase_accounting () =
  let federation = telecom_federation () in
  let config = Trader.default_config params in
  let o = ok (Trader.optimize config federation revenue) in
  let ph = o.Trader.phases in
  let msg (p : Trader.phase) = p.Trader.messages in
  let sim (p : Trader.phase) = p.Trader.sim in
  Alcotest.(check int)
    "messages partition"
    o.Trader.stats.messages
    (msg ph.rfb + msg ph.pricing + msg ph.negotiation + msg ph.plan_gen);
  Alcotest.(check (float 1e-6))
    "sim time partitions"
    o.Trader.stats.sim_time
    (sim ph.rfb +. sim ph.pricing +. sim ph.negotiation +. sim ph.plan_gen);
  Alcotest.(check bool) "pricing happened" true (ph.pricing.Trader.sim > 0.);
  Alcotest.(check bool)
    "pricing misses counted" true (ph.pricing.Trader.cache_misses > 0);
  Alcotest.(check int)
    "fresh pool means no in-trade hits" 0 ph.pricing.Trader.cache_hits;
  Alcotest.(check bool) "rfb carried traffic" true (msg ph.rfb > 0);
  Alcotest.(check bool)
    "negotiation carried traffic" true (msg ph.negotiation > 0)

let suite =
  ( "transport",
    [
      quick "lockstep and fault-free DES agree" test_lockstep_des_parity;
      quick "bid cache replays offers" test_bid_cache_replays_offers;
      quick "bid cache invalidation" test_bid_cache_invalidation;
      quick "fingerprint sees the last of 64 fragments"
        test_fingerprint_sees_last_fragment;
      quick "request and offer signatures and sizes"
        test_signature_and_size_invariants;
      quick "warm trade identical to cold" test_warm_trade_identical;
      quick "same-round request dedup" test_request_dedup;
      quick "standing-offer memo skips re-broadcast" test_standing_offer_memo;
      quick "phase accounting partitions totals" test_phase_accounting;
    ] )
