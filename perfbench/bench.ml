(* The repository benchmark: wall time and allocation per arrival of
   [Qt_market.Market.run_stream] on four named workloads.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc P]
             [--profile PROFILE]

   --trace 0 runs timed repetitions of one workload for S seconds and
   prints the end-to-end metrics; --trace 1 runs the separate traced pass
   and prints the per-layer metrics.  Either way the last line of
   standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  README.md in this
   directory has the workload rationale and the metric catalogue. *)

module Market = Qt_market.Market
module Arrivals = Qt_stream.Arrivals
module Sla = Qt_stream.Sla
module Tier = Qt_cache.Tier
module Pool = Qt_optimizer.Pool
module Pricing = Qt_pricing.Pricing

let now = Unix.gettimeofday

(* The machine's speed of the moment.  On a shared machine other tenants
   slow a whole process down by up to 1.7x, in stretches of tens of
   seconds, and a run cannot outlast them.  A fixed reference loop, run
   on as many domains as the workload uses, slows down with it: the
   ratio of a repetition's wall time to the loop's held within a few
   percent while both swung by 40%.  The loop is timed before every
   timed repetition and once after the last, and wall times are rescaled
   by [reference_quiet_s] over the mean of the two loop times around
   them. *)
let reference_loop () =
  let h = Hashtbl.create 4096 and state = ref 12345 in
  for _ = 1 to 14 do
    let pairs =
      List.init 20_000 (fun i ->
          state := ((!state * 1103515245) + 12345) land 0x3fffffff;
          (!state, i))
    in
    List.iter
      (fun (k, v) -> Hashtbl.replace h (k land 8191) (string_of_int v))
      (List.sort compare pairs)
  done

let reference ~domains =
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn reference_loop) in
  reference_loop ();
  List.iter Domain.join others;
  now () -. t0

(* The loop's time on the machine the bounds were set on (2 cores, OCaml
   5.1.1, release build) when nothing else ran.  Two domains allocating
   at once also wait on each other's minor collections. *)
let reference_quiet_s ~domains = if domains = 1 then 0.2 else 0.25

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type schema = Telecom | Tpch

type workload = {
  name : string;
  schema : schema;
  rate : float;  (* Poisson arrivals per simulated second *)
  zipf : float;  (* template popularity skew *)
  count : int;  (* arrivals per timed repetition *)
  execute : bool;
  surge : bool;  (* surge pricing on every seller *)
  telemetry : bool;  (* 1 s scrapes plus the interactive p95 SLO rule *)
  qcache : bool;  (* shared cache tier, warmed during set-up *)
  pooled : bool;  (* domain pool of min(nproc, recommended) domains *)
}

let plain =
  {
    name = "";
    schema = Telecom;
    rate = 0.5;
    zipf = 0.9;
    count = 0;
    execute = false;
    surge = false;
    telemetry = false;
    qcache = false;
    pooled = false;
  }

let workloads =
  [
    { plain with name = "telecom-fresh"; count = 1000 };
    {
      plain with
      name = "telecom-overload";
      rate = 8.;
      count = 600;
      execute = true;
      surge = true;
      telemetry = true;
    };
    {
      plain with
      name = "telecom-hot-cache";
      rate = 8.;
      zipf = 1.1;
      count = 40_000;
      execute = true;
      qcache = true;
    };
    {
      plain with
      name = "tpch-fresh-pool";
      schema = Tpch;
      count = 900;
      pooled = true;
    };
  ]

let template_count = 12

(* Arrivals in the unmeasured pass that warms telecom-hot-cache's tier. *)
let warm_count = 600

(* The warm-up schedule's arrival seed.  It differs from every measured
   seed's schedule and is fixed, so all seeds are measured against the
   same warmed tier. *)
let warm_seed = 1_000_003

let slo_rule = "interactive:p95<5:budget=0.01"
let params = Qt_cost.Params.default

let placement = { Qt_sim.Generator.partitions = 4; replicas = 1 }

let federation_of = function
  | Telecom -> Qt_sim.Generator.telecom ~nodes:8 ~placement ()
  | Tpch -> Qt_sim.Generator.tpch ~nodes:8 ~placement ()

let templates_of = function
  | Telecom -> Qt_sim.Workload.telecom_templates ~seed:11 ~count:template_count
  | Tpch -> Qt_sim.Workload.tpch_templates ~seed:11 ~count:template_count

let schedule w ~seed ~count =
  Arrivals.generate ~seed
    ~process:(Arrivals.Poisson { rate = w.rate })
    ~horizon:(Arrivals.Count count) ~templates:template_count ~theta:w.zipf
    ~mix:Sla.default_mix

let stream_config w ~pool ~tier ~telemetry =
  let d = Market.default_stream_config params in
  let b = d.Market.base in
  let trader = b.Market.trader in
  let rule =
    match Qt_obs.Slo.parse slo_rule with Ok r -> r | Error e -> failwith e
  in
  {
    d with
    Market.base =
      {
        b with
        Market.trader =
          {
            trader with
            Qt_core.Trader.pool;
            seller_template =
              { trader.Qt_core.Trader.seller_template with pool };
          };
        execute = (if w.execute then Some Market.default_exec else None);
        qcache = tier;
        pricing =
          (if w.surge then
             Some
               {
                 Pricing.default_config with
                 mix = Pricing.uniform_mix Pricing.Surge;
               }
           else None);
        pool;
      };
    telemetry =
      (if telemetry then
         Some { Market.default_telemetry with Market.slo_rules = [ rule ] }
       else None);
  }

(* Everything a repetition runs on.  Built fresh for every repetition:
   a new federation, domain pool and cache tier, and (inside
   [run_stream]) a new market with new seller bid caches, so no
   repetition measures state left by the one before.  The exception is
   telecom-hot-cache's tier, warmed here on purpose and charged to
   set-up. *)
type env = {
  federation : Qt_catalog.Federation.t;
  templates : Qt_sql.Ast.t array;
  arrivals : Arrivals.arrival list;
  pool : Pool.t option;
  tier : Tier.t option;
  warm : Tier.stats option;  (* the tier's counters after warm-up *)
  scfg : Market.stream_config;
}

let setup w ~seed ~domains ~telemetry =
  let federation = federation_of w.schema in
  let templates = Array.of_list (templates_of w.schema) in
  let arrivals = schedule w ~seed ~count:w.count in
  let pool = if domains > 1 then Some (Pool.create ~domains) else None in
  let tier =
    if w.qcache then Some (Tier.create Tier.default_config) else None
  in
  let scfg = stream_config w ~pool ~tier ~telemetry in
  let warm =
    Option.map
      (fun t ->
        ignore
          (Market.run_stream scfg federation ~templates
             (schedule w ~seed:warm_seed ~count:warm_count)
            : Market.stream_stats);
        Tier.stats t)
      tier
  in
  { federation; templates; arrivals; pool; tier; warm; scfg }

let teardown env = Option.iter Pool.shutdown env.pool

(* Cheap set-ups are repeated so that their median is steady; the
   warmed tier's set-up already takes a good part of a second. *)
let setup_samples w = if w.qcache then 1 else 25

(* Result-cache hits of the measured run alone (the tier's counters also
   hold the warm-up's). *)
let result_hits warm (s : Market.stream_stats) =
  let hits (q : Tier.stats) = q.Tier.result.Qt_cache.Result_cache.hits in
  match (s.str_qcache, warm) with
  | Some q, Some w -> hits q - hits w
  | Some q, None -> hits q
  | None, _ -> 0

(* ------------------------------------------------------------------ *)
(* Correctness                                                          *)
(* ------------------------------------------------------------------ *)

(* The conservation laws every run must satisfy.  Returns the list of
   violations (empty when the run is correct). *)
let check w env (s : Market.stream_stats) =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let ended = s.str_completed + s.str_shed + s.str_expired + s.str_failed in
  if s.str_arrivals <> w.count then
    fail "%d arrivals simulated, %d scheduled" s.str_arrivals w.count;
  if ended <> s.str_arrivals then
    fail "%d arrivals but %d ended (completed+shed+expired+failed)"
      s.str_arrivals ended;
  let class_arrivals =
    List.fold_left
      (fun acc (c : Market.class_stats) ->
        let ended = c.cs_completed + c.cs_shed + c.cs_expired + c.cs_failed in
        if ended <> c.cs_arrivals then
          fail "class %s: %d arrivals but %d ended" (Sla.to_string c.cs_klass)
            c.cs_arrivals ended;
        acc + c.cs_arrivals)
      0 s.str_classes
  in
  if class_arrivals <> s.str_arrivals then
    fail "classes hold %d arrivals, stream %d" class_arrivals s.str_arrivals;
  List.iter
    (fun (x : Market.seller_stats) ->
      let a = x.admission in
      let open Qt_market.Admission in
      if a.accepted <> a.completed + a.canceled then
        fail "seller %d: accepted %d <> completed %d + canceled %d" x.seller
          a.accepted a.completed a.canceled)
    s.str_sellers;
  if w.qcache && result_hits env.warm s <> s.str_arrivals then
    fail "hot cache: %d result hits for %d arrivals" (result_hits env.warm s)
      s.str_arrivals;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Repetitions                                                          *)
(* ------------------------------------------------------------------ *)

let failed_share (s : Market.stream_stats) =
  float_of_int (s.str_failed + s.str_expired + s.str_shed)
  /. float_of_int s.str_arrivals

type rep = {
  setup_s : float list;
  wall : float;
  minor_words : float;  (* all domains *)
  promoted_words : float;
  major_collections : int;
  goodput : float;
  failed_share : float;
  json : string;  (* [stream_to_json] *)
  digest : string;
  pool_stats : Pool.stats option;
  warm : Tier.stats option;  (* the tier's counters after warm-up *)
  errors : string list;  (* [check] violations *)
}

(* Set up (timed, [samples] times, keeping the last), run the stream
   once (timed), tear down.  Returns the repetition's summary and the
   run's statistics; callers keep the statistics of one run at most, so
   that earlier repetitions do not inflate the heap of later ones.
   [Gc.quick_stat] counts a domain's allocation once the domain has been
   joined, so the counters are read after the pool is shut down. *)
let rep ?(obs = Qt_obs.Obs.disabled) ?(samples = 1) w ~seed ~domains
    ~telemetry =
  let rec set_up acc k =
    let t0 = now () in
    let env = setup w ~seed ~domains ~telemetry in
    let acc = (now () -. t0) :: acc in
    if k <= 1 then (env, acc)
    else begin
      teardown env;
      set_up acc (k - 1)
    end
  in
  let env, setup_s = set_up [] samples in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t1 = now () in
  let stats =
    Market.run_stream ~obs env.scfg env.federation ~templates:env.templates
      env.arrivals
  in
  let wall = now () -. t1 in
  let pool_stats = Option.map Pool.stats env.pool in
  teardown env;
  (* Empty the minor heap so the counters include its last partial
     fill. *)
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let json = Market.stream_to_json stats in
  ( {
      setup_s;
      wall;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      goodput = stats.str_goodput;
      failed_share = failed_share stats;
      json;
      digest = Digest.to_hex (Digest.string json);
      pool_stats;
      warm = env.warm;
      errors = check w env stats;
    },
    stats )

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per_arrival w x = x /. float_of_int w.count

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

(* Print every metric as [name value unit], then the JSON result line.
   [guards] are sim-time outcomes a performance change must leave exactly
   unchanged; they are printed and checked, but carry no relative bound
   (failed_share is 0 on telecom-hot-cache), so they stay out of the
   JSON. *)
let emit ?(guards = []) ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-34s %18.6f %s\n" name v unit)
    metrics;
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "%-34s %18.6f %s (outcome guard)\n" name v unit)
    guards;
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name
             (value v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Timed pass (--trace 0)                                               *)
(* ------------------------------------------------------------------ *)

(* A first, untimed repetition fills process-wide lazy state (interned
   query signatures, first-touch heap growth); it is checked like every
   other.  Timed repetitions then run until [seconds] have passed, at
   least two of them.  The pooled workload finishes with one d1
   repetition on the same inputs, whose digest must equal dN's and whose
   allocation is the workload's [minor_words_per_arrival]: pool
   bookkeeping makes the dN count vary by a few hundred words. *)
let timed_pass w ~seed ~seconds ~domains =
  let run ?(samples = setup_samples w) domains =
    fst (rep ~samples w ~seed ~domains ~telemetry:w.telemetry)
  in
  let warmup = run ~samples:1 domains in
  let deadline = now () +. seconds in
  (* Stop before a repetition that would end past the deadline.  [refs]
     holds the reference loop's times around the repetitions. *)
  let rec loop reps refs =
    let t0 = now () in
    let refs = reference ~domains :: refs in
    let reps = run domains :: reps in
    if List.length reps >= 2 && now () +. (now () -. t0) > deadline then
      (List.rev reps, Array.of_list (List.rev (reference ~domains :: refs)))
    else loop reps refs
  in
  let reps, refs = loop [] [] in
  let speeds =
    List.mapi
      (fun i _ ->
        reference_quiet_s ~domains /. ((refs.(i) +. refs.(i + 1)) /. 2.))
      reps
  in
  let d1 = if domains > 1 then Some (run ~samples:1 1) else None in
  let first = List.hd reps in
  (* Every violation is reported; a repetition with any counts as
     failed. *)
  let rep_problems i r =
    let p = List.map (Printf.sprintf "rep %d: %s" i) r.errors in
    let differs what = Printf.sprintf "rep %d: %s differs from rep 1" i what in
    let unless same what = if same then [] else [ differs what ] in
    p
    @ unless (r.digest = first.digest) "stream_to_json digest"
    @ unless (r.goodput = first.goodput) "goodput"
    @ unless (r.failed_share = first.failed_share) "failed share"
    @ unless
        (domains > 1 || i = 0 || r.minor_words = first.minor_words)
        (Printf.sprintf "minor words (%.0f vs %.0f)" r.minor_words
           first.minor_words)
  in
  let d1_problems =
    match d1 with
    | None -> []
    | Some d1 ->
      List.map (Printf.sprintf "d1 rep: %s") d1.errors
      @
      if d1.digest <> first.digest then
        [ Printf.sprintf "d1 digest %s differs from d%d digest %s" d1.digest
            domains first.digest ]
      else []
  in
  let per_rep = List.mapi (fun i r -> rep_problems (i + 1) r) reps in
  let failed_reps =
    List.length (List.filter (fun p -> p <> []) per_rep)
    + (if d1_problems <> [] && List.hd per_rep = [] then 1 else 0)
  in
  let problems = rep_problems 0 warmup @ List.concat per_rep @ d1_problems in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let words = (Option.value d1 ~default:first).minor_words in
  let top_heap = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.printf
    "timed: %d reps of %d arrivals after 1 warm-up rep; walls %s s\n"
    (List.length reps) w.count
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) reps));
  Printf.printf "output digest %s\n" first.digest;
  (* Wall times rescaled to the machine's quiet speed (see
     [reference]); the raw figures are printed beside them. *)
  let rates speeds =
    List.map2 (fun r sp -> float_of_int w.count /. (r.wall *. sp)) reps speeds
  in
  let setups speeds =
    List.concat
      (List.map2 (fun r sp -> List.map (( *. ) sp) r.setup_s) reps speeds)
  in
  let raw = List.map (fun _ -> 1.) reps in
  Printf.printf
    "speed vs quiet machine: median %.3f; raw arrivals_per_s median %.2f, \
     raw setup_s median %.6f\n"
    (median speeds) (median (rates raw)) (median (setups raw));
  let attempted = List.length reps * w.count in
  emit ~correct:(problems = []) ~attempted
    ~failed:(failed_reps * w.count)
    [
      ("arrivals_per_s", median (rates speeds), "1/s");
      ("minor_words_per_arrival", per_arrival w words, "words");
      ( "peak_heap_mb",
        top_heap *. float_of_int (Sys.word_size / 8) /. 1048576.,
        "MB" );
      ("setup_s", median (setups speeds), "s");
    ]
    ~guards:
      [
        ("goodput", first.goodput, "ratio");
        ("failed_share", first.failed_share, "ratio");
      ]

(* ------------------------------------------------------------------ *)
(* Traced pass (--trace 1)                                              *)
(* ------------------------------------------------------------------ *)

(* Layer time here comes only from the benchmark's own timing of public
   calls.  The [wall] of [Obs] spans and of [Trader.phase] is measured
   with [Sys.time] across fiber suspensions, so under concurrent trades
   it counts time spent in other trades (README.md, "Known defect"); the
   traced run is used for counts and attributes only. *)

module Obs = Qt_obs.Obs
module Seller = Qt_core.Seller
module Trader = Qt_core.Trader
module Offer = Qt_core.Offer
module Admission = Qt_market.Admission
module Batcher = Qt_market.Batcher
module Execsched = Qt_execsched.Execsched
module Transport = Qt_net.Transport
module Sig = Qt_sql.Analysis.Sig

let spans_of spans ~cat ?name () =
  List.filter
    (fun (sp : Obs.span) ->
      sp.cat = cat && match name with None -> true | Some n -> sp.name = n)
    spans

let count spans ~cat ?name () =
  float_of_int (List.length (spans_of spans ~cat ?name ()))

let attr_sum spans ~cat ?name key =
  List.fold_left
    (fun acc (sp : Obs.span) -> acc + Obs.attr_int sp.attrs key)
    0 (spans_of spans ~cat ?name ())
  |> float_of_int

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(min (n - 1) (int_of_float (Float.round (p *. float_of_int (n - 1)))))

(* Median seconds per item of [f], which handles [items] items, over
   [rounds] calls. *)
let time_per_item ?(rounds = 5) ~items f =
  if items = 0 then 0.
  else
    median
      (List.init rounds (fun _ ->
           let t0 = now () in
           f ();
           (now () -. t0) /. float_of_int items))

(* Allocation of [f] on the calling domain. *)
let words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let take n xs = List.filteri (fun i _ -> i < n) xs

(* The closed-loop replay: [Trader.optimize] on the schedule's templates
   in arrival order, one call at a time, with seller bid caches shared
   across calls as a market shares them.  At most [replay_cap]
   arrivals. *)
let replay_cap = 1000

let replay_templates env =
  let n = Array.length env.templates in
  List.map
    (fun (a : Arrivals.arrival) -> env.templates.(a.template mod n))
    (take replay_cap env.arrivals)

(* Plain replay: per-call seconds of [Trader.optimize], and each
   distinct template's plan (what the exec probe runs). *)
let replay_plain env =
  let cfg = env.scfg.base.trader in
  let caches = Seller.pool_create () in
  let plans = Hashtbl.create 16 in
  let secs =
    List.map
      (fun q ->
        let t0 = now () in
        let r = Trader.optimize ~caches cfg env.federation q in
        let dt = now () -. t0 in
        (match r with
        | Ok o when not (Hashtbl.mem plans q) -> Hashtbl.replace plans q o.plan
        | _ -> ());
        dt)
      (replay_templates env)
  in
  (secs, Hashtbl.fold (fun _ p acc -> p :: acc) plans [])

(* One seller call seen at the transport boundary: [serve] is exactly the
   trader's [Seller.respond] call on the target node. *)
type serve_call = { sc_secs : float; sc_words : float; sc_cold : bool }

type recorded = {
  serves : serve_call list;
  replies : Offer.t list list;  (* every seller reply's offers *)
  rfb_secs : float;  (* transport time outside seller calls *)
  rounds : (int * Qt_sql.Ast.t * Offer.t list) list;
      (* per RFB round, in order: the trade, its query and the round's
         offers *)
  trades : int;
}

(* Instrumented replay: the same calls over a lock-step transport whose
   [gather_offers] times each seller call and keeps what it returned. *)
let replay_recorded env =
  let cfg = env.scfg.base.trader in
  let caches = Seller.pool_create () in
  let serves = ref [] and replies = ref [] and rounds = ref [] in
  let rfb = ref 0. in
  let transport trade q =
    let inner : Seller.response Transport.t =
      Qt_net.Transport_lockstep.create (Qt_net.Network.create cfg.params)
    in
    let gather_offers ~serve =
      let in_serve = ref 0. in
      let serve id =
        let before = (Seller.pool_stats caches).misses in
        let w0 = Gc.minor_words () in
        let t0 = now () in
        let ((r : Seller.response), _, _) as reply = serve id in
        let dt = now () -. t0 in
        let words = Gc.minor_words () -. w0 in
        in_serve := !in_serve +. dt;
        serves :=
          {
            sc_secs = dt;
            sc_words = words;
            sc_cold = (Seller.pool_stats caches).misses > before;
          }
          :: !serves;
        replies := r.offers :: !replies;
        reply
      in
      let t0 = now () in
      let round = inner.gather_offers ~serve in
      rfb := !rfb +. (now () -. t0 -. !in_serve);
      rounds :=
        ( trade,
          q,
          List.concat_map
            (fun (_, (r : Seller.response)) -> r.offers)
            round.Transport.replies )
        :: !rounds;
      round
    in
    let broadcast_rfb ~targets ~signatures ~request_bytes =
      let t0 = now () in
      inner.broadcast_rfb ~targets ~signatures ~request_bytes;
      rfb := !rfb +. (now () -. t0)
    in
    { inner with gather_offers; broadcast_rfb }
  in
  let qs = replay_templates env in
  List.iteri
    (fun i q ->
      ignore
        (Trader.optimize ~transport:(transport i q) ~caches cfg env.federation q
          : (Trader.outcome, string) result))
    qs;
  {
    serves = List.rev !serves;
    replies = List.rev !replies;
    rfb_secs = !rfb;
    rounds = List.rev !rounds;
    trades = List.length qs;
  }

(* Step B3 as the trader runs it: one [Protocol.run] per lot of offers
   promising the same answer. *)
let negotiate (cfg : Trader.config) offers =
  List.filter_map
    (fun (_, competing) ->
      let quotes =
        List.map
          (fun (o : Offer.t) ->
            {
              Qt_trading.Protocol.seller = o.seller;
              item = o;
              value = Offer.valuation cfg.weights o;
              true_cost = o.true_cost;
              strategy = cfg.strategy_of o.seller;
              load = cfg.load_of o.seller;
            })
          competing
      in
      Option.map
        (fun (q : Offer.t Qt_trading.Protocol.quote) -> q.item)
        (Qt_trading.Protocol.run cfg.protocol quotes).winner)
    (Qt_util.Listx.group_by (fun (o : Offer.t) -> Sig.id o.query_sig) offers)

(* Each recorded round's (query, offer pool after negotiation), the
   input of that round's plan generation (steps B4-B6): a trade's pool
   grows by each round's negotiation winners. *)
let plan_inputs cfg rounds =
  let pool = ref [] and trade = ref (-1) in
  List.map
    (fun (t, q, fresh) ->
      if t <> !trade then pool := [];
      trade := t;
      pool := !pool @ negotiate cfg fresh;
      (q, !pool))
    rounds

(* A layer's cost in the stream: the benchmark's own µs per call of the
   layer's public function, times the calls per arrival the traced run
   counted. *)
type layer = { us_per_call : float; calls_per_arrival : float }

let layer_us l = l.us_per_call *. l.calls_per_arrival
let no_layer = { us_per_call = 0.; calls_per_arrival = 0. }
let seconds_to_us = ( *. ) 1e6

(* Seller calls as the replay saw them, cold (at least one bid-cache
   miss) and warm, mixed in the traced run's proportion of all-hit
   calls.  Returns the layer, cold and warm µs, and words per call. *)
let seller_probe recd ~prices ~calls =
  let all_hits =
    List.filter
      (fun (sp : Obs.span) -> Obs.attr_int sp.attrs "cache_misses" = 0)
      prices
  in
  let warm_share =
    if prices = [] then 0.
    else
      float_of_int (List.length all_hits) /. float_of_int (List.length prices)
  in
  let cold, warm = List.partition (fun c -> c.sc_cold) recd.serves in
  let avg f calls = mean (List.map f calls) in
  let mix f =
    (avg f cold *. (1. -. warm_share)) +. (avg f warm *. warm_share)
  in
  let secs c = c.sc_secs and words c = c.sc_words in
  ( { us_per_call = seconds_to_us (mix secs); calls_per_arrival = calls },
    seconds_to_us (avg secs cold),
    seconds_to_us (avg secs warm),
    mix words )

(* The transport's own work per round: the replay's time in
   [broadcast_rfb] and [gather_offers] outside seller calls. *)
let rfb_probe recd ~calls =
  let rounds = List.length recd.rounds in
  {
    us_per_call =
      (if rounds = 0 then 0.
       else seconds_to_us (recd.rfb_secs /. float_of_int rounds));
    calls_per_arrival = calls;
  }

let negotiation_probe cfg recd ~calls =
  let once () =
    List.iter
      (fun (_, _, fresh) -> ignore (negotiate cfg fresh : Offer.t list))
      recd.rounds
  in
  {
    us_per_call =
      seconds_to_us (time_per_item ~items:(List.length recd.rounds) once);
    calls_per_arrival = calls;
  }

(* Plan generation and the predicates analyser on each recorded round's
   pool.  Returns the layer and words per call. *)
let plan_gen_probe (cfg : Trader.config) ~schema recd ~calls =
  let inputs = plan_inputs cfg recd.rounds in
  let once () =
    List.iter
      (fun (q, offers) ->
        ignore
          (Qt_core.Plan_generator.generate ~params:cfg.params
             ~weights:cfg.weights ~mode:cfg.mode ~schema ~offers ?pool:cfg.pool
             q
            : Qt_core.Plan_generator.candidate list);
        ignore
          (Qt_core.Buyer_analyser.enrich ~schema ~query:q ~offers
            : Qt_sql.Ast.t list))
      inputs
  in
  let items = List.length inputs in
  ( {
      us_per_call = seconds_to_us (time_per_item ~rounds:3 ~items once);
      calls_per_arrival = calls;
    },
    if items = 0 then 0. else words_of once /. float_of_int items )

(* [Sig.of_ast] on the queries of the replay's offers, µs per call. *)
let sql_probe recd =
  let queries =
    take 4000
      (List.concat_map (List.map (fun (o : Offer.t) -> o.query)) recd.replies)
  in
  seconds_to_us
    (time_per_item ~items:(List.length queries) (fun () ->
         List.iter (fun q -> ignore (Sig.of_ast q : Sig.t)) queries))

(* [Pricing.reprice] under surge on each recorded reply, µs per call. *)
let reprice_probe recd =
  let quote =
    {
      Pricing.q_strategy = Pricing.Surge;
      q_multiplier = Pricing.default_config.surge_multiplier;
      q_markup = Pricing.default_config.markup;
    }
  in
  let batches =
    List.map
      (fun offers ->
        Array.of_list
          (List.map (fun (o : Offer.t) -> (o.query, o.quoted)) offers))
      (take 2000 recd.replies)
  in
  seconds_to_us
    (time_per_item ~items:(List.length batches) (fun () ->
         List.iter
           (fun b -> ignore (Pricing.reprice quote b : float array))
           batches))

(* [Batcher.coalesce] on one wave of [trades] trades, each broadcasting
   one template to every node. *)
let batcher_probe env ~trades ~calls =
  let targets = Qt_catalog.Federation.node_ids env.federation in
  let wave =
    List.mapi
      (fun i q ->
        let sg = Sig.of_ast q in
        let bytes = String.length (Sig.to_string sg) in
        {
          Batcher.trade = i;
          targets;
          signatures = [ (Sig.id sg, bytes) ];
          bytes;
        })
      (take trades (replay_templates env))
  in
  let b = Batcher.create ~batching:true in
  let n = 200 in
  {
    us_per_call =
      seconds_to_us
        (time_per_item ~items:n (fun () ->
             for _ = 1 to n do
               ignore (Batcher.coalesce b wave : Batcher.envelope list)
             done));
    calls_per_arrival = calls;
  }

(* [Admission.submit] per contract, in cycles that fill the slots and
   the queue, take one rejection and drain through [finish]. *)
let admission_probe (acfg : Admission.config) ~calls =
  let per_cycle = acfg.slots + acfg.queue_limit + 1 in
  let cycle () =
    let adm = Admission.create acfg in
    let started = ref [] in
    for i = 1 to per_cycle do
      match
        Admission.submit adm ~now:0. ~trade:i ~work:1. ~priority:(i mod 3)
      with
      | Admission.Started h -> started := h :: !started
      | Admission.Enqueued _ | Admission.Rejected -> ()
    done;
    let rec drain t = function
      | [] -> ()
      | h :: rest -> drain (t +. 1.) (Admission.finish adm ~now:t h @ rest)
    in
    drain 1. !started
  in
  let n = 200 in
  {
    us_per_call =
      seconds_to_us
        (time_per_item ~items:(n * per_cycle) (fun () ->
             for _ = 1 to n do
               cycle ()
             done));
    calls_per_arrival = calls;
  }

(* Every distinct replayed plan through [Execsched.submit]/[drain] on
   the workload's materialized data, µs per task run. *)
let execsched_probe env (cfg : Trader.config) plans ~calls =
  let store =
    Qt_exec.Store.generate ~seed:Market.default_exec.store_seed env.federation
  in
  Qt_exec.Naive.materialize_views store env.federation;
  let secs = ref 0. and ran = ref 0 in
  for _ = 1 to 5 do
    let sched =
      Execsched.create
        { Execsched.default_config with workers = Market.default_exec.workers }
        cfg.params store env.federation
    in
    let t0 = now () in
    List.iteri
      (fun i p -> Execsched.submit sched ~trade:i ~buyer:(-1) ~at:0. p)
      plans;
    Execsched.drain sched ~upto:infinity;
    secs := !secs +. (now () -. t0);
    ran := !ran + (Execsched.stats sched).tasks_run
  done;
  {
    us_per_call =
      (if !ran = 0 then 0. else seconds_to_us (!secs /. float_of_int !ran));
    calls_per_arrival = calls;
  }

(* One launch-time probe as the market makes it: the signature, then the
   result cache, then the statement cache, on a tier warmed like the
   workload's own. *)
let qcache_probe env tier =
  let inst = Tier.instance tier ~client:0 in
  let fingerprint = Tier.fingerprint_of env.federation in
  let epoch = Tier.epoch_of env.federation in
  let qs = replay_templates env in
  let once () =
    List.iter
      (fun query ->
        let sg = Sig.of_ast query in
        match Qt_cache.Result_cache.find inst.result ~epoch sg with
        | Some _ -> ()
        | None ->
          ignore
            (Qt_cache.Statement_cache.find inst.stmt ~fingerprint sg
              : Qt_cache.Statement_cache.entry option))
      qs
  in
  {
    us_per_call = seconds_to_us (time_per_item ~items:(List.length qs) once);
    calls_per_arrival = 1.;
  }

let traced_pass w ~seed ~domains =
  let run ?obs ?(telemetry = w.telemetry) domains =
    fst (rep ?obs w ~seed ~domains ~telemetry)
  in
  let warmup = run domains in
  let base, s = rep w ~seed ~domains ~telemetry:w.telemetry in
  let untraced = [ base; run domains ] in
  let obs = Obs.create () in
  let traced = run ~obs domains in
  let spans = Obs.spans obs in
  let wall = median (List.map (fun r -> r.wall) untraced) in
  let n = float_of_int w.count in
  let run_us = seconds_to_us (wall /. n) in
  let per_arr x = x /. n in
  let ratio a b = if b > 0 then float_of_int a /. float_of_int b else 0. in
  (* The telemetry splice: the same inputs with telemetry off, whose
     stream JSON must be the telemetry-on JSON without its telemetry
     block. *)
  let offs, telemetry_us, ticks, words_per_tick =
    match s.str_telemetry with
    | None -> ([], 0., 0., 0.)
    | Some t ->
      let offs =
        [ run ~telemetry:false domains; run ~telemetry:false domains ]
      in
      let off = List.hd offs in
      let ticks = float_of_int t.tl_ticks in
      ( offs,
        seconds_to_us ((wall -. median (List.map (fun r -> r.wall) offs)) /. n),
        ticks,
        if ticks > 0. then (base.minor_words -. off.minor_words) /. ticks
        else 0. )
  in
  let spliced =
    List.for_all
      (fun r ->
        let stem = String.sub r.json 0 (String.length r.json - 1) in
        String.length base.json > String.length stem
        && String.sub base.json 0 (String.length stem) = stem)
      offs
  in
  (* The pool: the same inputs at one domain, untraced. *)
  let d1s, speedup, jobs, items =
    match base.pool_stats with
    | None -> ([], 1., 0., 0.)
    | Some ps ->
      let d1s = [ run 1; run 1 ] in
      ( d1s,
        median (List.map (fun r -> r.wall) d1s) /. wall,
        float_of_int ps.s_jobs,
        float_of_int (Array.fold_left ( + ) 0 ps.s_items) )
  in
  let same_output = (warmup :: untraced) @ d1s in
  let runs = same_output @ (traced :: offs) in
  let errors =
    List.concat_map (fun r -> r.errors) runs
    @ List.filter_map
        (fun r ->
          if r.digest = base.digest then None
          else Some "stream_to_json digest differs across runs")
        same_output
    @ if spliced then [] else [ "telemetry-off JSON is not the telemetry-on \
                                 JSON minus its telemetry block" ]
  in
  (* Probes, on their own environment of the same workload. *)
  let env = setup w ~seed ~domains ~telemetry:false in
  let cfg = env.scfg.base.trader in
  let optimize_secs, plans = replay_plain env in
  let recd = replay_recorded env in
  let optimizes = count spans ~cat:"optimize" () in
  let rounds = count spans ~cat:"rfb" () in
  let waves = count spans ~cat:"wave" () in
  let prices = spans_of spans ~cat:"pricing" ~name:"price" () in
  let seller, cold_us, warm_us, seller_words =
    seller_probe recd ~prices
      ~calls:(per_arr (float_of_int (List.length prices)))
  in
  let plan_gen, plan_gen_words =
    plan_gen_probe cfg ~schema:env.federation.schema recd
      ~calls:(per_arr rounds)
  in
  let negotiation = negotiation_probe cfg recd ~calls:(per_arr rounds) in
  let rfb = rfb_probe recd ~calls:(per_arr rounds) in
  let batcher =
    let trades =
      if waves = 0. then 1
      else
        max 1
          (int_of_float
             (Float.round (attr_sum spans ~cat:"wave" "trades" /. waves)))
    in
    batcher_probe env ~trades ~calls:(per_arr waves)
  in
  let sellers f =
    List.fold_left
      (fun acc (x : Market.seller_stats) -> acc + f x.admission)
      0 s.str_sellers
  in
  let accepted = sellers (fun a -> a.Admission.accepted)
  and rejected = sellers (fun a -> a.Admission.rejected)
  and canceled = sellers (fun a -> a.Admission.canceled)
  and admitted = sellers (fun a -> a.Admission.admitted) in
  let admission =
    admission_probe env.scfg.base.admission
      ~calls:(per_arr (float_of_int (accepted + rejected)))
  in
  let execsched =
    match s.str_exec with
    | Some e when w.execute ->
      execsched_probe env cfg plans ~calls:(per_arr (float_of_int e.tasks_run))
    | _ -> no_layer
  in
  let qcache, q_hit_rate, q_avoided =
    match (env.tier, s.str_qcache, base.warm) with
    | Some tier, Some q, Some w0 ->
      ( qcache_probe env tier,
        per_arr
          (float_of_int (result_hits base.warm s + q.stmt.hits - w0.stmt.hits)),
        per_arr (float_of_int (q.trades_avoided - w0.trades_avoided)) )
    | _ -> (no_layer, 0., 0.)
  in
  let sql_us = sql_probe recd and reprice_us = reprice_probe recd in
  teardown env;
  (* Signatures sellers compute: one per request priced, one per offer
     built on a bid-cache miss. *)
  let sql_calls =
    List.fold_left
      (fun acc (sp : Obs.span) ->
        let h = float_of_int (Obs.attr_int sp.attrs "cache_hits")
        and m = float_of_int (Obs.attr_int sp.attrs "cache_misses")
        and o = float_of_int (Obs.attr_int sp.attrs "offers") in
        acc +. h +. m +. if h +. m > 0. then o *. m /. (h +. m) else 0.)
      0. prices
  in
  (* Layers that nest in no other; sql and pricing run inside seller
     calls. *)
  let covered =
    List.fold_left
      (fun acc l -> acc +. layer_us l)
      telemetry_us
      [
        seller;
        plan_gen;
        negotiation;
        rfb;
        batcher;
        admission;
        execsched;
        qcache;
      ]
  in
  let share l = layer_us l /. run_us in
  let hits = attr_sum spans ~cat:"pricing" ~name:"price" "cache_hits"
  and misses = attr_sum spans ~cat:"pricing" ~name:"price" "cache_misses" in
  let bs = s.str_batcher in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  Printf.printf
    "traced: %.1f us/arrival untraced (median of 2 runs of %d arrivals), %d \
     spans; replay of %d trades, %d seller calls, %d rounds\n"
    run_us w.count (List.length spans) recd.trades (List.length recd.serves)
    (List.length recd.rounds);
  let ms = List.map (fun t -> t *. 1e3) optimize_secs in
  let failed_runs = List.filter (fun r -> r.errors <> []) runs in
  emit ~correct:(errors = [])
    ~attempted:(List.length runs * w.count)
    ~failed:
      ((if errors = [] then 0 else max 1 (List.length failed_runs)) * w.count)
    [
      ("trader.optimize_ms_p50", percentile ms 0.5, "ms");
      ("trader.optimize_ms_p99", percentile ms 0.99, "ms");
      ("trader.calls_per_arrival", per_arr optimizes, "count");
      ( "trader.rounds_per_call",
        (if optimizes > 0. then rounds /. optimizes else 0.),
        "count" );
      ("seller.respond_us_cold", cold_us, "us");
      ("seller.respond_us_warm", warm_us, "us");
      ("seller.calls_per_arrival", seller.calls_per_arrival, "count");
      ( "seller.bid_cache_hit_rate",
        (if hits +. misses > 0. then hits /. (hits +. misses) else 0.),
        "ratio" );
      ("seller.minor_words_per_call", seller_words, "words");
      ("seller.share", share seller, "ratio");
      ("plan_gen.us_per_call", plan_gen.us_per_call, "us");
      ("plan_gen.calls_per_arrival", plan_gen.calls_per_arrival, "count");
      ("plan_gen.minor_words_per_call", plan_gen_words, "words");
      ("plan_gen.share", share plan_gen, "ratio");
      ("negotiation.share", share negotiation, "ratio");
      ( "negotiation.messages_per_arrival",
        per_arr (attr_sum spans ~cat:"negotiation" "messages"),
        "count" );
      ("rfb.share", share rfb, "ratio");
      ( "rfb.messages_per_arrival",
        per_arr (attr_sum spans ~cat:"rfb" "messages"),
        "count" );
      ( "rfb.bytes_per_arrival",
        per_arr (attr_sum spans ~cat:"rfb" "bytes"),
        "bytes" );
      ("sql.sig_us", sql_us, "us");
      ("sql.calls_per_arrival", per_arr sql_calls, "count");
      ("market.waves_per_arrival", per_arr waves, "count");
      ("market.self_us_per_arrival", run_us -. covered, "us");
      ("batcher.coalesce_us", batcher.us_per_call, "us");
      ( "batcher.dup_merge_ratio",
        ratio bs.bytes_saved bs.unbatched_bytes,
        "ratio" );
      ( "batcher.messages_saved_ratio",
        ratio bs.messages_saved bs.unbatched_messages,
        "ratio" );
      ("admission.submit_us", admission.us_per_call, "us");
      ("admission.submits_per_arrival", admission.calls_per_arrival, "count");
      ("admission.reject_ratio", ratio rejected (accepted + rejected), "ratio");
      ("admission.cancel_ratio", ratio canceled accepted, "ratio");
      ("admission.admitted_gap", float_of_int (accepted - admitted), "count");
      ("execsched.task_us", execsched.us_per_call, "us");
      ("execsched.tasks_per_arrival", execsched.calls_per_arrival, "count");
      ("execsched.share", share execsched, "ratio");
      ("qcache.probe_us", qcache.us_per_call, "us");
      ("qcache.hit_rate", q_hit_rate, "ratio");
      ("qcache.trades_avoided_ratio", q_avoided, "ratio");
      ("pricing.reprice_us", reprice_us, "us");
      ( "pricing.surge_activations",
        (match s.str_pricing with
        | Some p -> float_of_int p.p_surge_activations
        | None -> 0.),
        "count" );
      ("telemetry.ticks_per_arrival", per_arr ticks, "count");
      ("telemetry.minor_words_per_tick", words_per_tick, "words");
      ("telemetry.share", telemetry_us /. run_us, "ratio");
      ("pool.speedup", speedup, "ratio");
      ("pool.jobs", jobs, "count");
      ("pool.items", items, "count");
      ("gc.promoted_words_per_arrival", per_arr base.promoted_words, "words");
      ("gc.major_collections", float_of_int base.major_collections, "count");
      ("obs.trace_overhead", (traced.wall /. wall) -. 1., "ratio");
      ("layers.coverage", covered /. run_us, "ratio");
      ("goodput", base.goodput, "ratio");
      ("failed_share", base.failed_share, "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc P] \
   [--profile PROFILE]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.
  and trace = ref 0 and nproc = ref 0 and profile = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N arrival-schedule seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S timed pass measuring time");
      ("--trace", Arg.Set_int trace, "0|1 timed pass or traced pass");
      ("--nproc", Arg.Set_int nproc, "P usable cores (default: recommended)");
      ("--profile", Arg.Set_string profile, "PROFILE dune profile, recorded");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload '" ^ !workload ^ "'; one of: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let recommended = Domain.recommended_domain_count () in
  let nproc = if !nproc > 0 then !nproc else recommended in
  let domains = if w.pooled then max 1 (min nproc recommended) else 1 in
  Printf.printf
    "machine: nproc %d, recommended_domain_count %d, ocaml %s, dune profile \
     %s\n"
    nproc recommended Sys.ocaml_version !profile;
  Printf.printf "workload %s: seed %d, domains %d, %d arrivals per run\n" w.name
    !seed domains w.count;
  if !trace = 0 then timed_pass w ~seed:!seed ~seconds:!seconds ~domains
  else traced_pass w ~seed:!seed ~domains
