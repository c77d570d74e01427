(** Row-major indexing of d-dimensional grids.

    All stencil and solver generators describe vectors as points of an
    [n_1 x ... x n_d] grid; this module centralizes the coordinate
    arithmetic. *)

type t

val create : int list -> t
(** [create dims] with every dimension positive. *)

val dims : t -> int list

val rank : t -> int
(** Number of dimensions [d]. *)

val size : t -> int
(** Total number of points (product of the dimensions). *)

val index : t -> int list -> int
(** Row-major linear index of a coordinate; raises [Invalid_argument]
    when out of range or of the wrong rank. *)

val coord : t -> int -> int list
(** Inverse of {!index}. *)

val star_neighbors : t -> int -> int list
(** Linear indices of the points one step along each axis (the
    [2d]-point von Neumann neighborhood), excluding the point itself;
    boundary points have fewer. *)

val box_neighbors : t -> int -> int list
(** The full Moore neighborhood ([3^d - 1] points), excluding the point
    itself. *)

val iter : t -> (int -> unit) -> unit
(** Apply to every linear index in ascending order. *)
