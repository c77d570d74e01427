(** The Jacobi / stencil analysis of Section 5.4.

    Theorem 10 gives the tight bound [n^d T / (4 P (2S)^{1/d})]; the
    balance condition becomes [balance >= 1 / (4 (2S)^{1/d})], i.e. the
    stencil is memory-bound only beyond a dimension threshold that
    depends on the cache size — [d <= 4.83] for BG/Q's DRAM-to-L2 link
    (so real 2D/3D stencils are fine) and [d <= 96] for L2-to-L1. *)

type threshold_row = {
  label : string;
  cache_words : int;
  balance : float;
  max_dim : float;       (** the paper's [4 * balance * log2(2S)] *)
  bound_at : int -> Dmc_machine.Balance.verdict;
      (** verdict for a given stencil dimensionality *)
}

val bgq_dram_l2 : threshold_row
(** BG/Q memory-to-L2: 32 MB = 4 MWords, balance 0.052 → [d <= 4.83]. *)

val bgq_l2_l1 : threshold_row
(** BG/Q L2-to-L1: 16 KB = 2 KWords, balance 2.0 (inferred from the
    paper's reported [d <= 96]). *)

val thresholds : unit -> threshold_row list
(** The two boundaries above plus the DRAM-to-cache rows of the other
    Table-1 machines. *)

val table : unit -> Dmc_util.Table.t

type tightness = {
  d : int;
  n : int;
  steps : int;
  s : int;
  analytic_lb : float;        (** Theorem 10 with [P = 1] *)
  skewed_ub : int;            (** measured I/O of the skewed-tile order *)
  natural_ub : int;           (** measured I/O of the untiled order *)
  ratio : float;              (** [skewed_ub / analytic_lb] *)
}

val tightness : ?d:int -> ?n:int -> ?steps:int -> ?s:int -> unit -> tightness
(** Play the skewed-tiled and natural orders through the RBW scheduler
    on a concrete stencil CDAG and compare with Theorem 10.  Defaults:
    [d = 1], [n = 64], [steps = 16], [s = 18]. *)

type horizontal_check = {
  dims : int list;
  blocks : int list;
  steps : int;
  measured_ghosts : int;      (** horizontal words from {!Dmc_sim.Exec} *)
  predicted_ghosts : int;     (** {!Dmc_sim.Partitioner.ghost_words} x T *)
}

val horizontal : ?dims:int list -> ?blocks:int list -> ?steps:int -> unit -> horizontal_check
(** Block-partition a stencil across nodes, execute it through the
    simulator, and check the horizontal traffic against the ghost-cell
    formula.  Defaults: a 12x12 grid in 2x2 blocks, 3 steps. *)

val parts : Experiment.part list
(** Four parts: thresholds, Theorem-10 tightness, horizontal ghost-cell
    traffic, and the surface-to-volume law. *)

val doc_of_parts : Dmc_util.Json.t list -> Doc.t
