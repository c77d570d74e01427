module Cdag := Dmc_cdag.Cdag

(** A structural QCheck generator for CDAGs with {e real shrinking}:
    counterexamples shrink by dropping edges and suffix vertices, so a
    failing property lands on a minimal graph instead of an opaque
    seed. *)

type spec = {
  n : int;                     (** vertex count *)
  edges : (int * int) list;    (** forward edges, [u < v] *)
}

val spec_to_cdag : spec -> Cdag.t
(** Build with Hong–Kung default tagging.  Total when the spec is
    well-formed (edges forward and in range), which generated and
    shrunk specs always are. *)

val arbitrary : ?max_n:int -> ?edge_prob:float -> unit -> spec QCheck.arbitrary
(** Random specs of 2 to [max_n] (default 10) vertices, each forward
    pair an edge with probability [edge_prob] (default 0.3).  Shrinks
    by removing edges one at a time, then trimming the last vertex. *)

val max_indegree : spec -> int

val transpose : Cdag.t -> Cdag.t
(** Every edge reversed; inputs and outputs trade tags. *)

val disjoint_union : Cdag.t -> Cdag.t -> Cdag.t
(** Side by side; the second graph's vertices are shifted past the
    first's and keep their tags. *)
