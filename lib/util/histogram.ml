(* part of qt_util *)

type t = { lo : int; hi : int; counts : float array }

let create ~lo ~hi ~buckets =
  if hi < lo then invalid_arg "Histogram.create: empty domain";
  if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
  { lo; hi; counts = Array.make (min buckets (hi - lo + 1)) 0. }

let bucket_count t = Array.length t.counts

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

(* The kernels read the (bucket, count) pairs [(at.(k), c.(k))] of [t]'s
   shape in ascending bucket order, or [(k, c.(k))] when [at] is empty
   (dense counts).  Loops over local float refs allocate nothing and add
   in the dense fold's order, so the nonzero buckets alone give the
   dense result bit for bit. *)
let pair_bucket at k = if Array.length at = 0 then k else at.(k)

(* Bucket [b] covers [bucket_lo t b, bucket_hi t b]. *)
let bucket_lo t b = t.lo + (b * width t / bucket_count t)
let bucket_hi t b = max (bucket_lo t b) (bucket_lo t (b + 1) - 1)

let sum c =
  let acc = ref 0. in
  for k = 0 to Array.length c - 1 do
    acc := !acc +. c.(k)
  done;
  !acc

let mass_kernel t at c (itv : Interval.t) =
  let c_lo = max t.lo itv.lo and c_hi = min t.hi itv.hi in
  let acc = ref 0. in
  (* Only buckets meeting [c_lo, c_hi] add anything: dense counts start
     at or before the bucket holding [c_lo]; the walk stops past [c_hi]. *)
  let k = ref (if Array.length at = 0 then (c_lo - t.lo) * bucket_count t / width t else 0) in
  while c_lo <= c_hi && !k < Array.length c do
    let b = pair_bucket at !k in
    let b_lo = bucket_lo t b in
    if b_lo > c_hi then k := Array.length c
    else begin
      let b_hi = max b_lo (bucket_lo t (b + 1) - 1) in
      let o_lo = max b_lo c_lo and o_hi = min b_hi c_hi in
      if o_lo <= o_hi then
        acc :=
          !acc
          +. c.(!k) *. (float_of_int (o_hi - o_lo + 1) /. float_of_int (b_hi - b_lo + 1));
      incr k
    end
  done;
  !acc

let percentile_kernel t at c p =
  let p = Float.max 0. (Float.min 1. p) in
  let tot = sum c in
  if tot <= 0. then float_of_int t.lo
  else begin
    let target = p *. tot and len = Array.length c in
    (* The first bucket whose cumulative mass reaches the target; failing
       that, the last bucket. *)
    let k = ref (-1) and acc = ref 0. and found = ref false in
    while (not !found) && !k < len - 1 do
      incr k;
      acc := !acc +. c.(!k);
      found := !acc >= target && c.(!k) > 0.
    done;
    let b = if !found then pair_bucket at !k else bucket_count t - 1 in
    let here = pair_bucket at !k = b in
    let cb = if here then c.(!k) else 0. in
    (* The rank below the bucket, summed backwards. *)
    let before = ref 0. in
    for j = (if here then !k - 1 else !k) downto 0 do
      before := !before +. c.(j)
    done;
    (* Linear interpolation of the target rank within the bucket span. *)
    let frac =
      if cb <= 0. then 0. else Float.max 0. (Float.min 1. ((target -. !before) /. cb))
    in
    float_of_int (bucket_lo t b) +. (frac *. float_of_int (bucket_hi t b - bucket_lo t b))
  end

let total t = sum t.counts
let mass_in t itv = mass_kernel t [||] t.counts itv
let percentile t p = percentile_kernel t [||] t.counts p

(* [shape] is the live histogram, read for its domain and bucket count. *)
type window = { shape : t; at : int array; grown : float array }

let window t ~prev =
  if Array.length prev <> bucket_count t then
    invalid_arg "Histogram.window: prev does not match the bucket count";
  let grown = ref [] in
  for b = bucket_count t - 1 downto 0 do
    let c = t.counts.(b) and p = prev.(b) in
    if c <> p then begin
      if c > p then grown := (b, c -. p) :: !grown;
      prev.(b) <- c
    end
  done;
  { shape = t; at = Array.of_list (List.map fst !grown);
    grown = Array.of_list (List.map snd !grown) }

let window_total w = sum w.grown
let window_mass_in w itv = mass_kernel w.shape w.at w.grown itv
let window_percentile w p = percentile_kernel w.shape w.at w.grown p

let fraction_in t itv =
  let tot = total t in
  if tot <= 0. then 0. else mass_in t itv /. tot

let sample t rng =
  let tot = total t in
  if tot <= 0. then invalid_arg "Histogram.sample: empty histogram";
  let target = Rng.float rng tot in
  let n = bucket_count t in
  let rec go b acc =
    if b >= n - 1 then b
    else
      let acc = acc +. t.counts.(b) in
      if target < acc then b else go (b + 1) acc
  in
  let b = go 0 0. in
  Rng.int_in rng (bucket_lo t b) (bucket_hi t b)

