(** Implicit CDAGs: the graph interface as functions, not arrays.

    A frozen {!Cdag.t} stores the whole CSR adjacency, which caps
    analyses near 10^6 vertices.  Regular CDAGs — stencils, butterflies,
    reduction trees, blocked linear algebra — have adjacency that is
    pure index arithmetic, so the graph can be described by its size
    and a handful of closures and never materialized.  An {!t} is
    exactly the read-only face of {!Cdag.t} ([n_vertices], successor /
    predecessor iteration, input/output predicates, labels) with every
    component a function; {!of_cdag} makes any frozen graph an
    instance, and {!materialize} / {!window} bridge back so the
    existing numeric engines keep working on whole graphs or on
    on-demand tiles.

    Vertex ids are dense integers [0 .. n_vertices-1], exactly as in
    {!Cdag}.  Generators in [Dmc_gen.Implicit_gen] additionally emit
    {e id-monotone} graphs (every edge goes from a lower id to a higher
    id), which is what lets streaming consumers sweep in id order with
    a bounded live window; {!check_monotone} verifies the property. *)

type vertex = int

type t = {
  n_vertices : int;
  iter_succ : vertex -> (vertex -> unit) -> unit;
      (** immediate successors, ascending id order *)
  iter_pred : vertex -> (vertex -> unit) -> unit;
  is_input : vertex -> bool;
  is_output : vertex -> bool;
  label : vertex -> string;
}

val of_cdag : Cdag.t -> t
(** Wrap a frozen graph; every component delegates to the CSR arrays. *)

val out_degree : t -> vertex -> int
val in_degree : t -> vertex -> int

val n_edges : t -> int
(** Counted by iterating every successor row — O(V + E); for
    billion-vertex graphs prefer the generator's closed form. *)

val materialize : t -> Cdag.t
(** Rebuild the frozen CSR form (O(V + E) time and space).  The result
    has the same vertex ids, edges, tags and labels; materializing
    [of_cdag g] reproduces [g] exactly.  Raises [Invalid_argument] if
    the implicit graph is cyclic or an iterator steps out of range. *)

val window : t -> lo:vertex -> hi:vertex -> Subgraph.part
(** Materialize the induced sub-CDAG on the id range [\[lo, hi)]
    without touching any vertex outside it (edges are discovered from
    the range's own successor rows; cost is O(hi - lo + edges touching
    the range)).  Tagging follows Theorem 2: the window's inputs are
    [I ∩ \[lo, hi)] and its outputs [O ∩ \[lo, hi)], so per-window
    bounds sum soundly over disjoint windows.  [part.to_parent] maps
    window ids back to [lo ..]. *)

val check_monotone : t -> bool
(** Whether every edge goes from a lower to a higher id — the property
    streaming consumers rely on.  O(V + E). *)
