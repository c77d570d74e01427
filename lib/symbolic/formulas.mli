(** The paper's bounds as symbolic formulas.

    Variable conventions: [n] grid side, [d] dimensionality, [T] time
    steps / CG iterations, [m] Krylov dimension, [S] fast-memory words,
    [P] processors, [N] node count, [B] per-dimension block side,
    [beta] machine balance (words/FLOP).

    Every formula evaluates (see the test suite) to the corresponding
    {!Dmc_core.Analytic} function on all parameters. *)

val matmul_lb : Expr.t
(** [n^3 / (2 sqrt(2 S))]. *)

val fft_lb : Expr.t
(** [n log2(n) / (2 log2(S))]. *)

val jacobi_lb : Expr.t
(** [n^d T / (4 P (2S)^(1/d))] — Theorem 10. *)

val jacobi_threshold : Expr.t
(** [1 / (4 (2S)^(1/d))] — the balance the machine must exceed. *)

val jacobi_max_dim : Expr.t
(** [4 beta log2(2 S)] — the paper's dimension threshold. *)

val cg_vertical_lb : Expr.t
(** [6 n^d T / P] — Theorem 8. *)

val cg_flops : Expr.t
(** [20 n^d T]. *)

val cg_vertical_per_flop : Expr.t
(** [6 / 20]. *)

val gmres_vertical_lb : Expr.t
(** [6 n^d m / P] — Theorem 9. *)

val gmres_vertical_per_flop : Expr.t
(** [6 / (m + 20)]. *)

val ghost_cells : Expr.t
(** [(B + 2)^d - B^d]. *)

val all : (string * Expr.t) list
(** Name -> formula registry for the CLI ([dmc formula]). *)

val find : string -> Expr.t option
