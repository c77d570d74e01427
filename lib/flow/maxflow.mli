(** Dinic's maximum-flow algorithm on integer-capacity networks.

    This is the engine behind the vertex-min-cut computation used by
    the wavefront lower bound (Section 3.3 of the paper).  Capacities
    are non-negative ints; use {!infinite} for "uncuttable" edges. *)

type t

val infinite : int
(** A capacity that no finite cut will saturate ([max_int / 4]). *)

val create : int -> t
(** [create n] is an empty network over nodes [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> int
(** Add a directed edge and its residual twin; returns an edge id for
    {!flow_on}.  Raises [Invalid_argument] on bad endpoints or negative
    capacity. *)

val max_flow : ?budget:Dmc_util.Budget.t -> t -> src:int -> dst:int -> int
(** Maximum [src]->[dst] flow.  May be called once per network state;
    flows accumulate, so build a fresh network per query.  Raises
    [Invalid_argument] if [src = dst].  [budget] is ticked once per
    BFS node visit and once per blocking-flow DFS step, so long phases
    on big networks raise [Dmc_util.Budget.Exhausted] promptly. *)

val flow_on : t -> int -> int
(** Flow currently routed through the edge with the given id. *)

val min_cut_source_side : t -> src:int -> Dmc_util.Bitset.t
(** After {!max_flow}: the set of nodes reachable from [src] in the
    residual network.  Edges leaving this set form a minimum cut. *)

val iter_out : t -> node:int -> (id:int -> dst:int -> unit) -> unit
(** Iterate the {e forward} edges (the ones created by {!add_edge},
    not their residual twins) leaving a node, with their ids — the raw
    material for flow decomposition. *)
