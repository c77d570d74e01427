module Cdag := Dmc_cdag.Cdag

(** Bound engines for the multi-processor game ({!Mp_game}, after
    arXiv 2409.03898) and the partial-computation game ({!Pc_game},
    after arXiv 2506.10854).

    The registry is deliberately separate from
    {!Bounds.governed_engines}: those engines answer the
    single-processor question "how much I/O does this CDAG force at
    capacity S", these answer the parallel questions "how much
    communication and how much time does it force at (p, S)".  Every
    engine still produces an ordinary {!Bounds.row} through the same
    fallback-ladder discipline (fresh budget per rung, unbudgeted
    terminal rungs, failure taxonomy in [attempts]), so the sweep,
    job-pool and report machinery consume the two families uniformly.

    Soundness of the communication lower bound rests on the simulation
    argument: one processor with the pooled fast memory of [p * S]
    words can replay any [p]-processor execution, so
    [IO_mp(p, S) >= IO_1(p * S)].  The bound is therefore monotone
    non-increasing in [p] and coincides with the sequential wavefront
    bound at [p = 1]. *)

type info = {
  name : string;
  kind : Bounds.kind;
  doc : string;  (** one line, shown by [dmc bounds --list-engines] *)
}

val engines : info list
(** [mp-comm-lb], [mp-comm-ub], [mp-time-lb], [mp-time-ub],
    [pc-io-lb], [pc-io-ub] — in presentation order. *)

val engine_names : string list

val find : string -> info option

val is_engine : string -> bool

val kind_of : string -> Bounds.kind option

val span : Cdag.t -> int
(** Critical-path length counting compute vertices — the
    parallelism-independent makespan floor used by [mp-time-lb]. *)

val plan :
  ?samples:int -> Cdag.t -> p:int -> s:int -> string -> Bounds.step list
(** An engine's rungs at [(p, s)], in attempt order — the same in every
    {!Bounds.mode}: [exact], [sampled], [floor] for the lower bounds
    with a search ([floor] alone for [pc-io-lb]), [belady] then
    [trivial] for the upper bounds.  [samples] (default 64) sizes the
    sampled wavefront rung.  Raises [Invalid_argument] on an unknown
    engine name or non-positive [p] / [s]. *)

val row :
  ?samples:int -> Bounds.mode -> Cdag.t -> p:int -> s:int -> string ->
  Bounds.row
(** Run one engine at [(p, s)]: its {!plan} through
    {!Bounds.run_ladder}, each non-terminal rung under a fresh
    {!Dmc_util.Budget.t} from [mode] (none under {!Bounds.Report}).
    Raises [Invalid_argument] on an unknown engine name or non-positive
    [p] / [s]. *)
