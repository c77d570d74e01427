module Budget := Dmc_util.Budget
module Cdag := Dmc_cdag.Cdag
module Bitset := Dmc_util.Bitset

(** S-partitions of CDAGs under the RBW model (Definition 5) and the
    Hong–Kung lower-bound machinery built on them (Theorem 1, Lemma 1,
    Corollary 1).

    An S-partition splits the compute vertices [V - I] into disjoint
    subsets such that
    - P2: no two subsets have edges in both directions between them;
    - P3: each subset's input set [In(V_i)] (outside vertices with a
      successor inside) has at most [S] vertices;
    - P4: each subset's output set [Out(V_i)] (inside vertices that are
      tagged outputs or have a successor outside) has at most [S]
      vertices.

    Partitions are represented as a color array indexed by vertex:
    inputs carry [-1], compute vertices a color in [0 .. h-1]. *)

val check : Cdag.t -> s:int -> color:int array -> (int, string) result
(** Validate a color array as an [s]-partition; [Ok h] returns the
    number of non-empty subsets.  P2 is checked exactly as Definition 5
    states it (no two-subset circuit). *)

val of_game : Cdag.t -> s:int -> Rbw_game.move list -> int array
(** The Theorem-1 construction: cut the (valid) game into consecutive
    phases of at most [s] I/O moves each — a new phase starts on the
    I/O move that would exceed the quota — and color each compute by
    its phase.  Colors are compacted to drop empty phases.  The result
    is a [2s]-partition whose block count [h] satisfies
    [s * h >= io >= s * (h - 1)].  Raises [Failure] when the game is
    not valid. *)

val min_h_exact : ?budget:Budget.t -> ?max_nodes:int -> Cdag.t -> s:int -> int
(** [H(S)]: the minimal number of subsets of any valid [s]-partition,
    by exhaustive branch-and-bound over set partitions of the compute
    vertices.  Only practical for small graphs; [max_nodes] (default
    20,000,000 search nodes) guards the search and raises
    {!Optimal.Too_large} beyond it. *)

val max_subset_exact : ?budget:Budget.t -> Cdag.t -> s:int -> int
(** An upper bound on [U(S)] — the largest subset usable in any valid
    [s]-partition — computed as the largest subset [W] of compute
    vertices with [|In(W)| <= s] and [|Out(W)| <= s] (the P2 constraint
    is dropped, which can only enlarge the result, keeping Corollary 1
    sound).  Exhaustive over subsets; requires at most 22 compute
    vertices ({!Optimal.Too_large} otherwise). *)

val lemma1_bound : s:int -> h:int -> int
(** Lemma 1: [Q >= S * (H(2S) - 1)]. *)

val corollary1_bound : s:int -> n_compute:int -> u:int -> int
(** Corollary 1: [Q >= S * (|V'| / U(2S) - 1)], rounded up; never
    negative. *)

val lower_bound_exact : ?budget:Budget.t -> ?max_nodes:int -> Cdag.t -> s:int -> int
(** Lemma 1 instantiated with the exhaustive [H(2S)]:
    [s * (min_h_exact ~s:(2s) - 1)], clamped at 0. *)

val lower_bound_u : ?budget:Budget.t -> Cdag.t -> s:int -> int
(** Corollary 1 instantiated with the exhaustive [U(2S)]. *)
