module Cdag := Dmc_cdag.Cdag
module Hierarchy := Dmc_machine.Hierarchy

(** The parallel red-blue-white (P-RBW) pebble game of Definition 6 —
    the paper's model of a multi-node, multi-core machine with a
    multi-level storage hierarchy (Fig. 1).

    Pebbles come in [L] levels of "shades": level-[l] shade [j] lives in
    the [j]-th storage unit of level [l] of a {!Dmc_machine.Hierarchy.t}
    and at most [S_l] such pebbles exist per unit.  Blue pebbles model
    the unbounded input/output storage behind the level-[L] memories;
    white pebbles mark evaluation (no recomputation, as in {!Rbw_game}).

    The rules (names follow the paper):
    - R1 {e Input}: place a level-[L] pebble on a blue-pebbled vertex
      (also places white);
    - R2 {e Output}: place a blue pebble on a level-[L]-pebbled vertex;
    - R3 {e Remote get}: copy a vertex from one level-[L] unit to
      another — the {e horizontal} data movement;
    - R4 {e Move up}: copy from a level-[l+1] unit into one of its
      level-[l] children ([l < L]) — {e vertical}, toward the cores;
    - R5 {e Move down}: copy from a level-[l-1] unit into its level-[l]
      parent ([l > 1]) — {e vertical}, away from the cores;
    - R6 {e Compute}: processor [p] fires an unevaluated vertex whose
      predecessors all carry [p]'s own level-1 shade; places [p]'s
      level-1 pebble and a white pebble;
    - R7 {e Delete}: remove any red pebble.

    A complete game ends with white pebbles everywhere and blue pebbles
    on all outputs. *)

type move =
  | Input of { unit_id : int; v : Cdag.vertex }
  | Output of { unit_id : int; v : Cdag.vertex }
  | Remote_get of { src : int; dst : int; v : Cdag.vertex }
  | Move_up of { level : int; unit_id : int; v : Cdag.vertex }
      (** place the level-[level] pebble of unit [unit_id], copying from
          that unit's parent at level [level + 1] *)
  | Move_down of { level : int; unit_id : int; v : Cdag.vertex }
      (** place the level-[level] pebble of unit [unit_id], copying from
          one of that unit's children at level [level - 1] *)
  | Compute of { proc : int; v : Cdag.vertex }
  | Delete of { level : int; unit_id : int; v : Cdag.vertex }

val pp_move : Format.formatter -> move -> unit

type stats = {
  loads : int;                     (** R1 count *)
  stores : int;                    (** R2 count *)
  remote_gets : int;               (** R3 count: total horizontal words *)
  remote_gets_per_unit : int array;
      (** R3 count by destination level-[L] unit *)
  move_up : int array;
      (** index [l-1]: R4 moves placing level-[l] pebbles, [l < L] *)
  move_down : int array;
      (** index [l-1]: R5 moves placing level-[l] pebbles, [l > 1] *)
  move_down_per_unit : int array array;
      (** [.(l-1).(j)]: R5 moves placing level-[l] pebbles in unit [j] *)
  computes_per_proc : int array;
  max_occupancy : int array array;
      (** [.(l-1).(j)]: peak pebble count of unit [j] at level [l] *)
}

val boundary_traffic : stats -> level:int -> int
(** Words crossing the boundary between levels [level - 1] and
    [level] (for [2 <= level <= L]): R4 moves placing level-[level-1]
    pebbles plus R5 moves placing level-[level] pebbles.  This is the
    vertical data movement that Theorems 5 and 6 bound. *)

type error = { step : int; reason : string }

val run : Hierarchy.t -> Cdag.t -> move list -> (stats, error) result
(** Replay and validate a game, enforcing every rule, all unit
    capacities, and the completion condition. *)

val validate : Hierarchy.t -> Cdag.t -> move list -> error option

val embed_sequential :
  Hierarchy.t -> proc:int -> Rbw_game.move list -> move list
(** Lift a sequential RBW game onto processor [proc] of the hierarchy:
    loads become [Input] followed by a chain of [Move_up]s down to
    [proc]'s level-1 unit, stores become a chain of [Move_down]s
    followed by [Output], computes and deletes stay at level 1 (deletes
    remove only the level-1 copy).  The embedding is a valid P-RBW game
    whenever the sequential game is valid with [s = S_1] and every
    intermediate level has enough capacity to hold all live values —
    guaranteed for one processor under one unbounded memory. *)
