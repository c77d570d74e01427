module Cdag := Dmc_cdag.Cdag

(** Inspection helpers for sequential game traces: summaries,
    timelines and rendering.  Used by the CLI's [--trace] output and by
    the notebooks-style examples. *)

type summary = {
  length : int;
  loads : int;
  stores : int;
  computes : int;
  deletes : int;
  io : int;            (** [loads + stores] *)
  distinct_loaded : int;
  reloads : int;       (** loads of vertices loaded before *)
}

val summarize : Rbw_game.move list -> summary
(** Pure counting — does not check validity. *)

val io_timeline : Rbw_game.move list -> int array
(** Cumulative I/O count after each move; length = number of moves. *)

val live_timeline : Rbw_game.move list -> int array
(** Number of red pebbles after each move, assuming the trace is valid
    (loads/computes of already-red vertices do not double count). *)

val to_string : ?limit:int -> Rbw_game.move list -> string
(** Render one move per line; [limit] truncates with an ellipsis
    (default unlimited). *)

val pp_summary : Format.formatter -> summary -> unit

val phase_io : s:int -> Rbw_game.move list -> int list
(** I/O counts of the Theorem-1 phases (consecutive segments of at most
    [s] I/O moves) — each entry is at most [s], and only the last may
    be smaller. *)

val parse : string -> (Rbw_game.move list, string) result
(** Parse the {!to_string} syntax back into a move list — one move per
    line, [load N] / [store N] / [compute N] / [delete N]; blank lines
    and [#] comments ignored.  Together with {!to_string} this lets
    games be stored, diffed and replayed by external tools (the CLI's
    [dmc replay]). *)

val render_timeline : ?width:int -> Rbw_game.move list -> string
(** A two-row ASCII sparkline of the game: cumulative I/O fraction on
    the first row, live red-pebble count on the second, downsampled to
    [width] columns (default 64).  Purely cosmetic — used by the CLI's
    [--trace] output. *)
