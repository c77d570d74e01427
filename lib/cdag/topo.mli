(** Topological orders and structural depth of CDAGs. *)

val order : Cdag.t -> Cdag.vertex array
(** A topological order of all vertices (Kahn's algorithm, smallest-id
    first among the ready vertices, so the order is deterministic). *)

val is_order : Cdag.t -> Cdag.vertex array -> bool
(** Whether the given permutation of [0 .. n-1] lists every vertex after
    all of its predecessors.  Also rejects non-permutations. *)

val depth : Cdag.t -> int array
(** [depth g].(v) is the number of edges on the longest path from any
    source to [v] (sources have depth 0). *)

val height : Cdag.t -> int array
(** Dual of {!depth}: longest path from [v] down to any sink. *)

val layers : Cdag.t -> Cdag.vertex list array
(** Vertices grouped by {!depth}: index [d] holds the vertices at depth
    [d], ascending. *)
