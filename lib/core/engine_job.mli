(** One engine of either family, as a row and as a pure, serializable
    job.

    {!row} and {!of_verdict} are the one place that dispatches an
    engine name to its family ({!Bounds} or {!Mp_bounds}).
    [dmc bounds] runs {!row} in pool workers that inherit the in-memory
    graph and reads each verdict back with {!of_verdict}.

    [dmc serve] and [dmc sweep] ship the same computation as a {!t}:
    the CDAG travels in its text serialization, the engine by name, and
    the budget by value, so a job is fully described by data and can be
    logged, checkpointed, or replayed verbatim ({!run}). *)

type t = {
  engine : string;
      (** a name from {!Bounds.governed_engines} or
          {!Mp_bounds.engines} *)
  graph : string;  (** {!Dmc_cdag.Serialize.to_string} text *)
  s : int;
  p : int;  (** processor count; only the mp engines read it *)
  timeout : float option;  (** cooperative per-rung deadline *)
  node_budget : int option;
  samples : int;
}

val make :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> ?p:int ->
  Dmc_cdag.Cdag.t -> s:int -> engine:string -> t
(** [samples] defaults to 64, matching {!Bounds.analyze_governed};
    [p] defaults to 1 (single-processor jobs never mention it, and
    checkpoints written before the multi-processor engines existed
    deserialize with the same default). *)

val to_json : t -> Dmc_util.Json.t

val of_json : Dmc_util.Json.t -> (t, string) result

val row :
  ?samples:int -> ?wavefront:Bounds.row Lazy.t -> ?p:int -> Bounds.mode ->
  Dmc_cdag.Cdag.t -> s:int -> string -> Bounds.row
(** One engine's row under [mode]: {!Bounds.row} for a sequential
    engine ([wavefront] as there), {!Mp_bounds.row} at [p] (default 1)
    for a multi-processor one.
    Raises [Invalid_argument] on an unknown engine name. *)

val of_verdict :
  ?p:int -> Dmc_cdag.Cdag.t -> s:int -> engine:string -> elapsed:float ->
  Dmc_runtime.Pool.verdict -> Bounds.row
(** {!Bounds.of_verdict} with the engine's own {!Bounds.Ladder} plan:
    the worker's row, or the lost worker's terminal-rung row, for
    either family. *)

val run : t -> (Dmc_util.Json.t, Dmc_util.Budget.failure) result
(** Execute the job's full fallback ladder and return the row as a
    {!Bounds.row_to_json} payload.  [Error] only for jobs broken
    before any engine runs: an unparseable graph or an unknown engine
    name is [Invalid_input] — resource exhaustion inside the ladder
    degrades within the row instead. *)
