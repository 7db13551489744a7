(* The dense histogram as it was before windows and loop kernels: bucket
   counts in one float array, [Array.fold_left] totals, a boxed
   recursive percentile, an [Interval]-per-bucket [mass_in], and
   [copy]/[diff] snapshots for scrape windows.  Tests hold
   [Qt_util.Histogram] and [Qt_obs.Timeseries] to it bit for bit. *)

module Interval = Qt_util.Interval

type t = { lo : int; hi : int; counts : float array }

let create ~lo ~hi ~buckets =
  if hi < lo then invalid_arg "Histogram.create: empty domain";
  if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
  { lo; hi; counts = Array.make (min buckets (hi - lo + 1)) 0. }

let bucket_count t = Array.length t.counts
let domain t = Interval.make t.lo t.hi

let width t = t.hi - t.lo + 1

(* Bucket boundaries: bucket b covers value indices
   [b*width/n, (b+1)*width/n). *)
let bucket_of t v =
  let v = max t.lo (min t.hi v) in
  let idx = (v - t.lo) * bucket_count t / width t in
  min (bucket_count t - 1) idx

let add t v = t.counts.(bucket_of t v) <- t.counts.(bucket_of t v) +. 1.

let of_values ~lo ~hi ~buckets values =
  let t = create ~lo ~hi ~buckets in
  List.iter (add t) values;
  t

let uniform ~lo ~hi ~buckets ~total =
  let t = create ~lo ~hi ~buckets in
  let n = bucket_count t in
  (* Allocate proportionally to each bucket's value span so boundary
     buckets of uneven splits stay consistent. *)
  for b = 0 to n - 1 do
    let b_lo = lo + (b * width t / n) and b_hi = lo + (((b + 1) * width t / n) - 1) in
    let span = float_of_int (b_hi - b_lo + 1) in
    t.counts.(b) <- total *. span /. float_of_int (width t)
  done;
  t

let zipf ~lo ~hi ~buckets ~total ~theta =
  if theta <= 0. then uniform ~lo ~hi ~buckets ~total
  else begin
    let t = create ~lo ~hi ~buckets in
    let n = width t in
    (* Zipf mass of rank i (1-based) is 1/i^theta; accumulate per bucket.
       For large domains, approximate by integrating over each bucket's
       rank span, which is exact enough for estimation purposes. *)
    let harmonic =
      (* integral approximation of sum_{1..n} x^-theta *)
      if Float.abs (theta -. 1.) < 1e-9 then Float.log (float_of_int n) +. 1.
      else
        ((Float.pow (float_of_int n) (1. -. theta)) -. 1.) /. (1. -. theta) +. 1.
    in
    let cumulative r =
      (* approx sum_{1..r} x^-theta *)
      if r <= 0. then 0.
      else if Float.abs (theta -. 1.) < 1e-9 then Float.log r +. 1.
      else ((Float.pow r (1. -. theta)) -. 1.) /. (1. -. theta) +. 1.
    in
    let nb = bucket_count t in
    for b = 0 to nb - 1 do
      let rank_lo = float_of_int (b * n / nb) in
      let rank_hi = float_of_int ((b + 1) * n / nb) in
      let mass = (cumulative rank_hi -. cumulative rank_lo) /. harmonic in
      t.counts.(b) <- total *. Float.max 0. mass
    done;
    t
  end

let total t = Array.fold_left ( +. ) 0. t.counts

let copy t = { t with counts = Array.copy t.counts }

let diff cur prev =
  if cur.lo <> prev.lo || cur.hi <> prev.hi
     || bucket_count cur <> bucket_count prev
  then invalid_arg "Histogram.diff: mismatched domains";
  {
    cur with
    counts =
      Array.mapi
        (fun b c -> Float.max 0. (c -. prev.counts.(b)))
        cur.counts;
  }

let mass_in t itv =
  let clipped = Interval.inter itv (domain t) in
  if Interval.is_empty clipped then 0.
  else begin
    let n = bucket_count t in
    let acc = ref 0. in
    for b = 0 to n - 1 do
      let b_lo = t.lo + (b * width t / n) in
      let b_hi = t.lo + (((b + 1) * width t / n) - 1) in
      let bucket_itv = Interval.make b_lo (max b_lo b_hi) in
      let overlap = Interval.inter bucket_itv clipped in
      if not (Interval.is_empty overlap) then begin
        let frac =
          float_of_int (Interval.width overlap) /. float_of_int (Interval.width bucket_itv)
        in
        acc := !acc +. (t.counts.(b) *. frac)
      end
    done;
    !acc
  end

let fraction_in t itv =
  let tot = total t in
  if tot <= 0. then 0. else mass_in t itv /. tot

let percentile t p =
  let p = Float.max 0. (Float.min 1. p) in
  let tot = total t in
  if tot <= 0. then float_of_int t.lo
  else begin
    let target = p *. tot in
    let n = bucket_count t in
    let rec go b acc =
      if b >= n then n - 1
      else
        let acc' = acc +. t.counts.(b) in
        if acc' >= target && t.counts.(b) > 0. then b else go (b + 1) acc'
    in
    let rec cum b acc = if b < 0 then acc else cum (b - 1) (acc +. t.counts.(b)) in
    let b = go 0 0. in
    let before = cum (b - 1) 0. in
    let b_lo = t.lo + (b * width t / n) in
    let b_hi = max b_lo (t.lo + (((b + 1) * width t / n) - 1)) in
    (* Linear interpolation of the target rank within the bucket span. *)
    let frac =
      if t.counts.(b) <= 0. then 0.
      else Float.max 0. (Float.min 1. ((target -. before) /. t.counts.(b)))
    in
    float_of_int b_lo +. (frac *. float_of_int (b_hi - b_lo))
  end
