(** The multi-node, multi-level memory hierarchy of Section 3.4 (see
    Fig. 1 of the paper).

    A hierarchy has [L] levels.  Level 1 is the innermost storage
    (registers / private caches): [N_1 = P] units — one per processor —
    each holding [S_1] words.  Level [L] is the outermost: [N_L] main
    memories connected by the interconnect.  Each level-[l] unit has a
    unique parent unit at level [l+1]; fan-out is uniform, so
    [N_l mod N_{l+1} = 0]. *)

type level_spec = {
  count : int;     (** [N_l]: number of storage units at this level *)
  capacity : int;  (** [S_l]: words (red pebbles) per unit; must be positive *)
}

type t

val create : level_spec list -> t
(** [create specs] with [specs] listed innermost (level 1) first.
    Raises [Invalid_argument] when the list is empty, a count or
    capacity is non-positive, counts do not weakly decrease, or a count
    is not divisible by its parent level's count. *)

val n_levels : t -> int
(** [L]. *)

val count : t -> level:int -> int
(** [N_l]; levels are 1-based.  Raises [Invalid_argument] out of range. *)

val capacity : t -> level:int -> int
(** [S_l]. *)

val processors : t -> int
(** [P = N_1]. *)

val parent_unit : t -> level:int -> int -> int
(** [parent_unit h ~level j] is the index of the level-[l+1] unit above
    level-[l] unit [j].  Requires [level < L]. *)

val children_units : t -> level:int -> int -> int list
(** Indices of the level-[l-1] units below a level-[l] unit.  Requires
    [level > 1]. *)

val unit_of_processor : t -> level:int -> int -> int
(** The level-[l] unit in the subtree of which processor [p] sits
    (processor [p] is level-1 unit [p]). *)

val cluster : nodes:int -> cores:int -> s1:int -> l2:int -> mem:int -> t
(** The paper's target shape: [nodes] main memories of [mem] words,
    each above an [l2]-word shared cache, each above [cores] processors
    with [s1] private words. *)

val pp : Format.formatter -> t -> unit

val pp_tree : Format.formatter -> t -> unit
(** Multi-line rendering of the Fig.-1 shape: one row per level,
    outermost first, showing unit counts, capacities and fan-out. *)
