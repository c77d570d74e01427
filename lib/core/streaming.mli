module Implicit := Dmc_cdag.Implicit

(** Streaming wavefront bounds over implicit graphs.

    A frozen graph too big to hold is still easy to {e window}: the
    id range [0 .. n) is cut into consecutive windows, each window is
    materialized on demand ({!Implicit.window}, Theorem-2 tagging),
    bounded with the standard wavefront engine, and the per-window
    bounds are summed.  By Theorem 2 the sum is a valid I/O lower
    bound for the whole CDAG, and memory stays proportional to one
    window.  This is the mid-scale tool — graphs of 10^6..10^8
    vertices that are enumerable but not materializable; for
    billion-node instances use {!Symbolic_bounds}, which never
    enumerates at all. *)

type window_bound = { lo : int; hi : int; bound : int }

type result = {
  total : int;  (** the Theorem-2 sum — a valid whole-graph bound *)
  n_windows : int;
  degraded : int;
      (** windows that fell back to the trivial bound 0: their worker
          was lost after retries, or they never started because the
          run was interrupted or reached its drain deadline *)
  windows : window_bound array;
}

val default_window : int
(** 4096 vertices per window. *)

val wavefront_sum :
  ?samples:int ->
  ?window:int ->
  ?settings:Dmc_runtime.Run.settings ->
  ?deadline:float ->
  Implicit.t ->
  s:int ->
  result
(** The sweep, one {!Dmc_runtime.Run.batch} job per window.  [samples]
    is forwarded to {!Wavefront.lower_bound} (windows at or below its
    exact threshold are solved exactly).  [settings] (default
    {!Dmc_runtime.Run.default}: in the caller) may fan the windows out
    over supervised fork workers; results commit in window order and
    the engine seeds its own rng per window, so totals and rows are
    byte-identical across widths.  [deadline] is the batch's drain
    deadline: windows not started by then count as [degraded]. *)
