(** Buyer query plan generator (Section 3.6).

    Combines the winning offers into candidate execution plans for the
    original query.  The paper frames this as answering queries using
    views; the implementation builds {e blocks} — units of remote work —
    and then runs join enumeration over them:

    - a {b single block} is one offer that fully covers an alias subset;
    - a {b union block} stitches together offers that tile the required
      partition-key range of exactly {e one} alias (the others fully
      covered) with pairwise-disjoint ranges; a UNION ALL of such pieces
      is always equal to the unpartitioned result;
    - {b final-answer offers} (a seller or a view quoting the whole query,
      aggregation included) become one-leaf candidate plans;
    - {b two-phase aggregate offers} (requests manufactured by the buyer
      predicates analyser: same GROUP BY, decomposed aggregates, one alias
      range-restricted) are unioned and topped with a roll-up aggregation
      — SUMs of partial SUMs, SUMs of partial COUNTs, MINs of MINs.

    Single and union blocks are built once per alias subset into one block
    table, which seeds the memo of the seller's own enumerator
    ({!Qt_optimizer.Dp.enumerate}): a pre-built block competes with every
    join split of smaller blocks, and joins follow the same algorithm rule
    as the seller's (nested loop unless an equality conjunct crosses the
    inputs).  Enumeration is either exhaustive DP or IDP(k, m) (IDP-M(2,5)
    in the paper's experiments), chosen by [mode]; the buyer keeps only
    the cheapest plan per subset. *)

type mode = Mode_dp | Mode_idp of int * int

type candidate = {
  plan : Qt_optimizer.Plan.t;
  cost : Qt_cost.Cost.t;  (** Buyer-estimated response time of the plan. *)
  description : string;  (** Human-readable shape, for traces/examples. *)
}

val generate :
  params:Qt_cost.Params.t ->
  weights:Offer.weights ->
  mode:mode ->
  schema:Qt_catalog.Schema.t ->
  offers:Offer.t list ->
  ?pool:Qt_optimizer.Pool.t ->
  Qt_sql.Ast.t ->
  candidate list
(** Candidate plans for the query, cheapest first; empty when the offer
    pool cannot cover the query (step B8's abort condition).  [pool]
    parallelizes the block join enumeration per DP level; the candidate
    list is identical to the serial path at any domain count. *)

val singleton_blocks :
  params:Qt_cost.Params.t ->
  weights:Offer.weights ->
  schema:Qt_catalog.Schema.t ->
  offers:Offer.t list ->
  Qt_sql.Ast.t ->
  (string * Qt_optimizer.Plan.t) list
(** Cheapest fully-covering access block per alias (one offer or a
    partition-disjoint union), from single-alias offers only — a read of
    the same block table {!generate} enumerates over.  Used by the
    two-step baseline, which fixes the join order first and only then
    chooses data sources. *)

val rollup_items : Qt_sql.Ast.t -> Qt_sql.Ast.select_item list option
(** For a query whose aggregates are all decomposable (SUM/COUNT/MIN/MAX),
    the select list a two-phase {e piece} must compute: the grouping
    columns plus the same aggregates.  [None] when the query has AVG or
    DISTINCT, which do not decompose.  Shared with the buyer predicates
    analyser so both sides agree on the piece shape. *)
