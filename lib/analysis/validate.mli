(** Mechanical validation of the bound machinery: on families of small
    CDAGs, check that every lower bound sits below the provably optimal
    game, that every strategy sits above it, and that the Theorem-1
    game-to-partition construction produces valid 2S-partitions with
    the promised arithmetic.  These are the experiments that certify
    the implementation reproduces the paper's theory, not just its
    formulas. *)

type case = {
  name : string;
  n_vertices : int;
  s : int;
  best_lb : int;
  optimal : int option;   (** [None] when the search exceeded its budget *)
  belady : int;
  rb_optimal : int option;
      (** Hong–Kung optimum with recomputation, when the graph satisfies
          the strict convention *)
  sound : bool;
      (** [best_lb <= optimal <= belady], and [rb_optimal <= optimal]
          when both are available *)
}

val soundness_suite : ?seed:int -> ?cases:int -> unit -> case list
(** Random layered/gnp DAGs plus the fixed small families (trees,
    diamonds, FFT, pyramid, binomial), each analyzed at 2–3 values of
    [S]. *)

val all_sound : case list -> bool

type theorem1_check = {
  name : string;
  s : int;
  io : int;
  h : int;              (** blocks of the game-derived 2S-partition *)
  partition_valid : bool;
  arithmetic_holds : bool;  (** [s*h >= io >= s*(h-1)] *)
}

val theorem1_suite : ?seed:int -> unit -> theorem1_check list
(** Build Belady games on assorted CDAGs, derive the Theorem-1
    partition from each, and check both partition validity (as a
    2S-partition) and the I/O sandwich. *)

type sim_check = {
  name : string;
  s : int;                (** innermost capacity of the simulator *)
  simulated_io : int;     (** boundary-1 traffic of the LRU hierarchy *)
  game_lb : int;          (** best certified lower bound at [S = s] *)
  holds : bool;           (** [simulated_io >= game_lb] *)
}

val simulator_suite : ?seed:int -> unit -> sim_check list
(** The cache simulator is one particular pebble-game player, so its
    measured traffic must dominate every certified lower bound. *)

type hierarchy_check = {
  name : string;
  s1 : int;
  s2 : int;
  boundary_regs : int;   (** measured words between registers and cache *)
  boundary_mem : int;    (** measured words between cache and memory *)
  lb_at_s1 : int;        (** certified sequential bound at [S = s1] *)
  lb_at_s2 : int;
  holds : bool;
      (** both boundaries dominate their bounds (Theorem 5 with
          [N_l = 1]) and the inner boundary carries at least as much *)
}

type matmul_level_row = {
  n : int;
  s1 : int;
  s2 : int;
  regs_traffic : int;       (** measured at the register boundary *)
  regs_bound : float;       (** [n^3 / (2 sqrt(2 s1))] *)
  cache_traffic : int;      (** measured at the cache boundary *)
  cache_bound : float;      (** [n^3 / (2 sqrt(2 s2))] *)
}

val validate_parts : Experiment.part list
(** The "validate" experiment: soundness suite + Theorem 1. *)

val validate_doc_of_parts : Dmc_util.Json.t list -> Doc.t

val sim_parts : Experiment.part list
(** The "sim" experiment: simulator cross-check, P-RBW hierarchy, and
    the multi-level matmul tightness. *)

val sim_doc_of_parts : Dmc_util.Json.t list -> Doc.t
