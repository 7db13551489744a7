(** Equi-width histograms over integer attributes.

    Uniform-value assumptions break down on skewed data (hot customers,
    popular keys).  A histogram attached to a schema attribute lets every
    estimator — the sellers' local optimizers and the buyer's plan
    generator alike — price range restrictions by actual mass instead of
    range width.  Buckets store (fractional) row counts; queries between
    bucket boundaries interpolate linearly within the boundary buckets. *)

type t

val create : lo:int -> hi:int -> buckets:int -> t
(** All-zero histogram over the closed domain [lo, hi].
    @raise Invalid_argument if the domain is empty or [buckets <= 0]. *)

val of_values : lo:int -> hi:int -> buckets:int -> int list -> t
(** Build from observed values; values outside the domain are clamped to
    its edges. *)

val uniform : lo:int -> hi:int -> buckets:int -> total:float -> t
(** [total] rows spread evenly. *)

val zipf : lo:int -> hi:int -> buckets:int -> total:float -> theta:float -> t
(** [total] rows distributed over the domain with Zipf skew [theta]
    (0 = uniform); lower key values are the hot ones. *)

val add : t -> int -> unit
(** Count one occurrence. *)

val total : t -> float
(** Sum of the bucket counts, in bucket order.  {!total}, {!mass_in}
    and {!percentile} allocate nothing per bucket. *)

val mass_in : t -> Interval.t -> float
(** Estimated rows with values inside the interval (clipped to the
    domain), interpolating within partially-covered buckets. *)

val fraction_in : t -> Interval.t -> float
(** [mass_in] normalized by {!total}; 0 when the histogram is empty. *)

val bucket_count : t -> int

val percentile : t -> float -> float
(** [percentile t p] is the interpolated value at quantile [p] (clamped
    to [0, 1]): the first bucket whose cumulative mass reaches
    [p * total], linearly interpolated across the bucket's value span.
    Returns the domain's lower bound when the histogram is empty. *)

val sample : t -> Rng.t -> int
(** Draw a value from the histogram's distribution: a bucket weighted by
    its mass, then uniform within the bucket.
    @raise Invalid_argument on an empty histogram. *)

type window
(** A histogram's growth [max 0 (cur - prev)] between two scrapes, held
    as its nonzero (bucket, count) pairs in ascending bucket order. *)

val window : t -> prev:float array -> window
(** [window t ~prev] is [t]'s growth since [prev], its bucket counts at
    the previous scrape ([Array.make (bucket_count t) 0.] before the
    first): one pass over the buckets that allocates only for those that
    grew, leaving [prev] equal to [t]'s counts.
    @raise Invalid_argument if [prev] is not [bucket_count t] long. *)

val window_total : window -> float
val window_percentile : window -> float -> float

val window_mass_in : window -> Interval.t -> float
(** {!total}, {!percentile} and {!mass_in} of the window, bit for bit
    those of a dense histogram holding its counts. *)
