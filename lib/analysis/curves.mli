(** I/O-versus-fast-memory curves: the series a roofline-style figure
    would plot.  For each workload, sweep the fast-memory capacity [S]
    and report the analytic lower bound next to the best measured
    schedule at that capacity — who wins, by what factor, and how both
    fall as [S] grows (the Hong–Kung shapes: [1/sqrt S] for matmul,
    [1/S^{1/d}] for stencils, [1/log S] for the FFT). *)

type point = {
  s : int;
  lb : float;        (** analytic lower bound at this capacity *)
  ub : int;          (** best measured schedule at this capacity *)
}

type curve = {
  workload : string;
  shape : string;    (** the predicted decay, e.g. "~ 1/sqrt S" *)
  points : point list;
}

val jacobi_curve : ?n:int -> ?steps:int -> ss:int list -> unit -> curve
(** Skewed-tiled 1D Jacobi; defaults [n = 96], [steps = 24]. *)

val fft_curve : ?k:int -> ss:int list -> unit -> curve
(** Pass-blocked butterfly; default [k = 8]. *)

val table : curve -> Dmc_util.Table.t

val curve_to_json : curve -> Dmc_util.Json.t

val curve_of_json : Dmc_util.Json.t -> curve

val parts : Experiment.part list
(** One part per workload curve. *)

val doc_of_parts : Dmc_util.Json.t list -> Doc.t
(** All three curves plus the shape check: LB ≤ UB pointwise, both
    decrease (weakly, within measurement wiggle) as [S] grows, and the
    UB/LB ratio stays bounded across the sweep. *)
