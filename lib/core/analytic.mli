(** Closed-form data-movement bounds for the algorithms the paper
    analyzes.  All results are in {e words}; [float] because the
    formulas involve roots and the parameters reach [n = 1000, d = 3]
    scales.

    Constants follow the paper exactly, including its operation counts
    (e.g. CG's [20 n^d T] FLOPs), so the evaluation tables reproduce
    the published numbers (0.3 words/FLOP for CG, [6/(m+20)] for
    GMRES, [d <= 4.83] for Jacobi on BG/Q). *)

(** {1 Dense linear algebra (Sections 2–3)} *)

val matmul_lb : n:int -> s:int -> float
(** Hong–Kung matrix-multiplication bound [n^3 / (2 sqrt(2S))]. *)

val outer_product_io : n:int -> float
(** Exact I/O of an [n x n] outer product: [2n + n^2] (inputs must be
    read, results written; no reuse is possible). *)

val composite_io_upper : n:int -> float
(** The Section-3 composite example executed with [4n + 4] words of
    fast memory under the recomputation-allowed model: [4n + 1] I/Os. *)

val fft_lb : n:int -> s:int -> float
(** FFT butterfly bound [Θ(n log n / log S)]; the constant used is
    [n log2 n / (2 log2 S)] (Hong–Kung Theorem 2.1 shape).  Requires
    [s >= 2]. *)

(** {1 Jacobi stencils (Section 5.4, Theorem 10)} *)

val jacobi_lb : d:int -> n:int -> steps:int -> s:int -> p:int -> float
(** [n^d T / (4 P (2S)^{1/d})] — Theorem 10 generalized to [d]
    dimensions. *)

val jacobi_balance_threshold : d:int -> s:int -> float
(** The per-FLOP vertical traffic floor [1 / (4 (2S)^{1/d})] that the
    machine balance must exceed for the stencil not to be
    bandwidth-bound. *)

val jacobi_max_dim : s:int -> balance:float -> float
(** The paper's threshold [d <= 4 * balance * log2(2S)] (its
    "[0.21 log(2 S_2)]" with [0.21 = 4 x 0.052]); evaluates to 4.83 for
    BG/Q's memory-to-L2 balance with [S_2] = 4 MWords, and to 96 for
    the L2-to-L1 boundary. *)

(** {1 Conjugate Gradient (Section 5.2, Theorem 8)} *)

val cg_vertical_lb : d:int -> n:int -> steps:int -> p:int -> float
(** The asymptotic bound [6 n^d T / P]. *)

val cg_vertical_lb_exact : d:int -> n:int -> steps:int -> s:int -> p:int -> float
(** The pre-asymptotic form from the proof of Theorem 8:
    [T (2 (2 n^d - S) + 2 (n^d - S)) / P = 2 T (3 n^d - 2 S) / P],
    clamped at 0. *)

val cg_flops : d:int -> n:int -> steps:int -> float
(** The paper's operation count [20 n^d T]. *)

val cg_horizontal_ub : d:int -> block:int -> steps:int -> float
(** Ghost cells of the SpMV per iteration: [((B+2)^d - B^d) T]. *)

val cg_vertical_per_flop : unit -> float
(** [6/20 = 0.3] words/FLOP — the number compared against Table 1. *)

val cg_horizontal_per_flop : d:int -> n:int -> nodes:int -> float
(** [6 N_nodes^{1/d} / (20 n)] words/FLOP (the paper's [d = 3] algebra,
    generalized). *)

(** {1 GMRES (Section 5.3, Theorem 9)} *)

val gmres_vertical_lb : d:int -> n:int -> m:int -> p:int -> float
(** [6 n^d m / P]. *)

val gmres_vertical_lb_exact : d:int -> n:int -> m:int -> s:int -> p:int -> float
(** [2 m (3 n^d - 2S) / P], the summed per-iteration wavefront bounds. *)

val gmres_vertical_per_flop : m:int -> float
(** [6 / (m + 20)]. *)

val gmres_horizontal_per_flop : d:int -> n:int -> m:int -> nodes:int -> float
(** [6 N_nodes^{1/d} / (n m)]. *)

(** {1 Shared helpers} *)

val ghost_cells : d:int -> block:int -> float
(** [(B+2)^d - B^d]: boundary points fetched from the neighbors of one
    [B^d] block of a star/box stencil or grid SpMV. *)

val pow_int : float -> int -> float
(** [pow_int x k] for non-negative [k]. *)
