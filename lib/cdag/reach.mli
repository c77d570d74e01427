(** Reachability queries: ancestors, descendants, and convex closures.

    The wavefront lower bound (Section 3.3) needs, for a vertex [x],
    the partition [S_x = {x} ∪ Anc(x)] versus [T_x ⊇ Desc(x)]; these
    helpers compute the required vertex sets as bitsets. *)

module Bitset := Dmc_util.Bitset

val descendants : Cdag.t -> Cdag.vertex -> Bitset.t
(** Proper descendants of a vertex (excluding the vertex itself). *)

val ancestors : Cdag.t -> Cdag.vertex -> Bitset.t
(** Proper ancestors (excluding the vertex itself). *)

val reaches : Cdag.t -> Cdag.vertex -> Cdag.vertex -> bool
(** [reaches g u v] is true when there is a directed path [u ->* v]
    (true when [u = v]). *)

val is_convex : Cdag.t -> Bitset.t -> bool
(** A set [S] is convex when every path between two members stays in
    [S]; equivalently no path leaves and re-enters.  Checked by scanning
    a topological order. *)

val transitive_closure : Cdag.t -> Bitset.t array
(** [transitive_closure g].(v) is the set of vertices reachable from
    [v], including [v].  Quadratic memory — intended for the small
    graphs used by the exact bound engines. *)
