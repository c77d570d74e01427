(** Architectural what-if sweeps built on the Section-5 machinery —
    the paper's concluding point that the framework tells architects
    {e which} parameter to grow.

    All functions are pure table builders over the analytic bounds. *)

type cg_node_point = {
  nodes : int;
  horizontal_per_flop : float;  (** [6 N^{1/d} / (20 n)] *)
  network_bound_on : string list;
      (** Table-1 machines whose horizontal balance this exceeds *)
}

val cg_node_sweep : ?d:int -> ?n:int -> node_counts:int list -> unit -> cg_node_point list
(** CG's vertical cost per FLOP is node-count independent (0.3), but
    the ghost-cell surface grows with the node count: this sweep finds
    the scale at which the {e network} finally becomes a co-bottleneck. *)

val cg_network_bound_at : ?d:int -> ?n:int -> balance:float -> unit -> float
(** The node count where [6 N^{1/d}/(20 n) = balance]:
    [N = (balance * 20n / 6)^d]. *)

type cache_point = {
  cache_mwords : float;
  max_dim_paper : float;   (** the paper's [4 * balance * log2(2S)] *)
  threshold_2d : float;    (** exact per-FLOP floor [1/(4 (2S)^{1/2})] *)
  threshold_3d : float;
}

val jacobi_cache_sweep : ?balance:float -> cache_mwords:float list -> unit -> cache_point list
(** How the Jacobi dimension threshold moves with the cache size, at a
    fixed DRAM balance (default BG/Q's 0.052). *)

val balance_trend_table : unit -> Dmc_util.Table.t
(** The balance timeline over {!Dmc_machine.Machines.extended}: per
    system, the (estimated) vertical and horizontal balances and the
    verdicts for CG and GMRES (m = 32) — the paper's motivating trend,
    extended past 2014: every algorithm with a constant words/FLOP
    floor drifts deeper into bandwidth-bound territory. *)

val tables : unit -> Dmc_util.Table.t list
(** All three sweeps, rendered. *)

val parts : Experiment.part list
(** Two parts: the three what-if sweeps and the balance-trend table. *)

val doc_of_parts : Dmc_util.Json.t list -> Doc.t
