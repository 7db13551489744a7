(* part of qt_obs *)

module Histogram = Qt_util.Histogram
module Interval = Qt_util.Interval

type point = { pt_time : float; pt_series : string; pt_value : float }

type t = {
  ts_metrics : Metrics.t;
  ts_interval : float;
  mutable ts_next : float;
  mutable ts_ticks : int;
  (* Points in reverse emission order; [points] reverses once. *)
  mutable ts_points : point list;
  mutable ts_npoints : int;
  prev_counters : (string, int) Hashtbl.t;
  (* Each histogram's bucket counts at the previous scrape, allocated at
     its first scrape and updated in place by [Histogram.window]. *)
  prev_histos : (string, float array) Hashtbl.t;
  (* Results of the most recent scrape, for SLO evaluation. *)
  window_counters : (string, float) Hashtbl.t;
  window_histos : (string, Histogram.window * float) Hashtbl.t;
  lasts : (string, float) Hashtbl.t;
}

let create ~interval metrics =
  if not (interval > 0.) then
    invalid_arg "Timeseries.create: interval must be positive";
  {
    ts_metrics = metrics;
    ts_interval = interval;
    (* First tick one interval in: a scrape at t = 0 would only report
       an empty window. *)
    ts_next = interval;
    ts_ticks = 0;
    ts_points = [];
    ts_npoints = 0;
    prev_counters = Hashtbl.create 32;
    prev_histos = Hashtbl.create 16;
    window_counters = Hashtbl.create 32;
    window_histos = Hashtbl.create 16;
    lasts = Hashtbl.create 64;
  }

let interval t = t.ts_interval
let next_tick t = t.ts_next
let ticks t = t.ts_ticks
let point_count t = t.ts_npoints

let emit t ~now series value =
  t.ts_points <- { pt_time = now; pt_series = series; pt_value = value } :: t.ts_points;
  t.ts_npoints <- t.ts_npoints + 1;
  Hashtbl.replace t.lasts series value

let push = emit

let scrape t ~now =
  List.iter
    (fun (name, view) ->
      match view with
      | Metrics.V_counter c ->
        let cur = Metrics.value c in
        let prev =
          match Hashtbl.find_opt t.prev_counters name with
          | Some v -> v
          | None -> 0
        in
        let delta = float_of_int (cur - prev) in
        Hashtbl.replace t.prev_counters name cur;
        Hashtbl.replace t.window_counters name delta;
        emit t ~now (name ^ ".rate") (delta /. t.ts_interval)
      | Metrics.V_gauge g -> emit t ~now name (Metrics.gauge_value g)
      | Metrics.V_histo h ->
        let live = Metrics.histo_buckets h in
        let prev =
          match Hashtbl.find_opt t.prev_histos name with
          | Some prev -> prev
          | None ->
            let prev = Array.make (Histogram.bucket_count live) 0. in
            Hashtbl.replace t.prev_histos name prev;
            prev
        in
        let window = Histogram.window live ~prev in
        let scale = Metrics.histo_scale h in
        Hashtbl.replace t.window_histos name (window, scale);
        let count = Histogram.window_total window in
        emit t ~now (name ^ ".count") count;
        if count > 0. then
          List.iter
            (fun (suffix, p) ->
              emit t ~now (name ^ suffix)
                (Histogram.window_percentile window p /. scale))
            [ (".p50", 0.5); (".p95", 0.95); (".p99", 0.99) ])
    (Metrics.items t.ts_metrics);
  t.ts_ticks <- t.ts_ticks + 1;
  t.ts_next <- t.ts_next +. t.ts_interval

let last t series = Hashtbl.find_opt t.lasts series

let window_delta t name =
  match Hashtbl.find_opt t.window_counters name with
  | Some d -> d
  | None -> 0.

let window_above t name threshold =
  match Hashtbl.find_opt t.window_histos name with
  | None -> None
  | Some (window, scale) ->
    let total = Histogram.window_total window in
    let thr = int_of_float (Float.max 0. (threshold *. scale)) in
    let below =
      if thr <= 0 then 0.
      else Histogram.window_mass_in window (Interval.make 0 (thr - 1))
    in
    Some (Float.max 0. (total -. below), total)

let points t = List.rev t.ts_points

let jf x = Printf.sprintf "%.6g" x

let point_to_json p =
  Printf.sprintf "{\"t\":%s,\"series\":%s,\"value\":%s}" (jf p.pt_time)
    (Qt_util.Json_min.quote p.pt_series) (jf p.pt_value)
