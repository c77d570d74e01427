module Cdag := Dmc_cdag.Cdag

(** Execute a scheduled CDAG through the cache-hierarchy simulator and
    measure the actual data movement — the experimental counterpart of
    the paper's bounds.

    Every vertex is one word named by its id.  Firing a vertex reads
    its operands through the owning node's hierarchy and writes its
    result dirty at level 1.  With multiple nodes, an operand owned by
    another node is fetched once into the reader's node (one horizontal
    word per distinct (value, reader-node) pair — the ghost-cell
    traffic), after which it is served locally. *)

type config = {
  capacities : int array;
      (** per-node cache hierarchy, innermost level first *)
  nodes : int;
  owner : Cdag.vertex -> int;
      (** home node of each vertex; must return a value in
          [0 .. nodes-1].  Ignored (all zero) when [nodes = 1]. *)
}

val sequential : capacities:int array -> config
(** Single-node configuration. *)

type result = {
  vertical : int array array;
      (** [.(node).(l-1)]: words crossing boundary [l] of that node's
          hierarchy (see {!Hier_sim.traffic}), flushed at the end *)
  horizontal_in : int array;  (** words received per node *)
  horizontal_total : int;
  computed : int;             (** vertices fired *)
}

val run : Cdag.t -> order:Cdag.vertex array -> config -> result
(** [order] must be a topological order of the non-input vertices (the
    same contract as {!Dmc_core.Strategy.schedule}); raises
    [Invalid_argument] otherwise. *)
