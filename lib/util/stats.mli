(** Summary statistics over float samples, used by the benchmark
    harness and the validation experiments to report tightness ratios
    between lower bounds and measured I/O. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;   (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val mean : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100], by linear interpolation on
    the sorted samples. *)

val percentile_weighted : (float * int) array -> float -> float
(** [percentile_weighted pairs p]: the same interpolation as
    {!percentile} over the multiset in which each [(value, weight)]
    pair stands for [weight] copies of [value] — without materializing
    it.  How {!Dmc_obs} histograms turn merged bucket counts into
    p50/p90/p99.  Raises [Invalid_argument] on an empty array, a
    negative weight or an all-zero total weight. *)

val pp_summary : Format.formatter -> summary -> unit
