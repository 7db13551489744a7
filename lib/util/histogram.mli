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

val copy : t -> t
(** Independent snapshot; later {!add}s to either side do not affect the
    other. *)

val diff : t -> t -> t
(** [diff cur prev] is the bucketwise difference [cur - prev] clamped at
    zero — the mass added between two snapshots of the same histogram,
    suitable for windowed percentiles.
    @raise Invalid_argument if the domains or bucket counts differ. *)

val mass_in : t -> Interval.t -> float
(** Estimated rows with values inside the interval (clipped to the
    domain), interpolating within partially-covered buckets. *)

val fraction_in : t -> Interval.t -> float
(** [mass_in] normalized by {!total}; 0 when the histogram is empty. *)

val domain : t -> Interval.t

val percentile : t -> float -> float
(** [percentile t p] is the interpolated value at quantile [p] (clamped
    to [0, 1]): the first bucket whose cumulative mass reaches
    [p * total], linearly interpolated across the bucket's value span.
    Returns the domain's lower bound when the histogram is empty. *)

val sample : t -> Rng.t -> int
(** Draw a value from the histogram's distribution: a bucket weighted by
    its mass, then uniform within the bucket.
    @raise Invalid_argument on an empty histogram. *)
