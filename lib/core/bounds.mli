module Cdag := Dmc_cdag.Cdag

(** One-stop lower/upper-bound analysis of a concrete CDAG, combining
    every engine in this library.  This is what the CLI and the
    validation experiments call. *)

type report = {
  s : int;
  n_vertices : int;
  n_edges : int;
  io_floor : int;
      (** the tagging floor: every input must be loaded once (white
          pebbles) and every non-input output stored once *)
  wavefront_lb : int;   (** {!Wavefront.lower_bound} *)
  partition_lb : int option;
      (** {!Spartition.lower_bound_exact} when the graph is small
          enough for the exhaustive search, else [None] *)
  partition_u_lb : int option;
      (** {!Spartition.lower_bound_u} when feasible *)
  span_lb : int option;
      (** {!Span.lower_bound} (Savage's S-span) when the graph is small
          enough for the exhaustive span search *)
  best_lb : int;        (** max of the above *)
  belady_ub : int;      (** measured I/O of the Belady schedule *)
  lru_ub : int;         (** measured I/O of the LRU schedule *)
  trivial_ub : int;     (** {!Strategy.trivial_io} *)
  optimal_io : int option;
      (** exhaustive optimum when the graph has at most
          [optimal_limit] vertices *)
}

val io_floor : Cdag.t -> int

val analyze : ?optimal_limit:int -> Cdag.t -> s:int -> report
(** The {!Report} plan run in-process and read back with
    {!report_of_rows}.  [optimal_limit] (default 0, i.e. disabled) caps
    the vertex count for the exhaustive optimal game (never above 20).
    Raises [Failure] with the engine's message when an engine fails for
    any reason other than size, e.g. S below a vertex's operand set. *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Dmc_util.Json.t
(** The report as JSON, for the CLI's [--json] output. *)

(** {1 Result-typed engines and governed analysis}

    The raising entry points above stay for small-graph callers; the
    governed layer wraps every engine in a
    {!Dmc_util.Budget.t}-governed, result-typed API and degrades
    gracefully down a fallback ladder instead of failing. *)

type failure = Dmc_util.Budget.failure =
  | Timeout
  | Budget_exhausted
  | Cancelled
  | Too_large of string
  | Invalid_input of string
  | Internal of string
(** Re-export of the shared failure taxonomy so callers of this module
    need not also name [Dmc_util.Budget]. *)

module Engine : sig
  type 'a outcome = ('a, failure) result

  val run : ?budget:Dmc_util.Budget.t -> (unit -> 'a) -> 'a outcome
  (** Run a thunk under the unified failure taxonomy:
      [Budget.Exhausted] becomes its carried failure,
      [Budget.Internal_error] becomes [Internal], {!Optimal.Too_large}
      becomes [Too_large] (as does [Stack_overflow] from a too-deep
      search recursion), and [Invalid_argument]/[Failure] become
      [Invalid_input].  An already-exhausted [budget] short-circuits
      without running the thunk. *)

  val rbw_io :
    ?budget:Dmc_util.Budget.t -> ?max_states:int -> Cdag.t -> s:int ->
    int outcome

  val rb_io :
    ?budget:Dmc_util.Budget.t -> ?max_states:int -> Cdag.t -> s:int ->
    int outcome

  val min_balanced_horizontal :
    ?budget:Dmc_util.Budget.t -> ?slack:int -> Cdag.t -> procs:int ->
    (int * int array) outcome

  val span_lb :
    ?budget:Dmc_util.Budget.t -> ?max_nodes:int -> Cdag.t -> s:int ->
    int outcome

  val partition_lb :
    ?budget:Dmc_util.Budget.t -> ?max_nodes:int -> Cdag.t -> s:int ->
    int outcome

  val partition_u_lb :
    ?budget:Dmc_util.Budget.t -> Cdag.t -> s:int -> int outcome

  val wavefront_lb :
    ?budget:Dmc_util.Budget.t -> ?samples:int -> ?rng:Dmc_util.Rng.t ->
    Cdag.t -> s:int -> int outcome

  val strategy_io :
    ?budget:Dmc_util.Budget.t -> ?policy:Strategy.policy ->
    ?order:Cdag.vertex array -> Cdag.t -> s:int -> int outcome
end

type kind = Lower | Upper | Exact
(** What a governed row's value means: a sound lower bound, a measured
    (achievable) upper bound, or the exhaustive optimum.  An [Exact]
    row that fell back down its ladder carries a lower bound instead —
    its [rung] says so. *)

type row = {
  engine : string;  (** ["wavefront"], ["partition-h"], ["belady"], ... *)
  kind : kind;
  value : int option;  (** [None] only when every rung failed *)
  rung : string;
      (** the ladder rung that produced [value]: ["exact"],
          ["sampled"], ["wavefront"], ["floor"], ["trivial"], or ["-"] *)
  attempts : (string * failure) list;
      (** the rungs that failed before [rung], in attempt order *)
  elapsed : float;  (** wall-clock seconds spent on the whole ladder *)
}

type governed = {
  gov_s : int;
  gov_n_vertices : int;
  gov_n_edges : int;
  gov_rows : row list;
  gov_best_lb : int;
      (** max over [Lower] and [Exact] rows — every rung of those
          ladders yields a sound lower bound *)
  gov_best_ub : int option;
      (** min over [Upper] rows and non-degraded [Exact] rows; [None]
          when no upper-bound engine completed (e.g. [s] too small) *)
}

val kind_to_string : kind -> string
(** ["lb"], ["ub"], ["exact"]. *)

val row_status : row -> string
(** ["ok"] when the first rung won, else
    ["timeout(fallback=sampled)"]-style: the first failure's class and
    the rung that finally produced the value. *)

val analyze_governed :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> Cdag.t -> s:int ->
  governed
(** The {!Ladder} plan run in-process: every engine under its own fresh
    budget ([timeout] seconds and/or [node_budget] ticks {e per ladder
    rung}), degrading down a fallback ladder instead of failing: exact
    engines fall back to the wavefront row's achieved value and then to
    {!io_floor}; the wavefront row itself falls back from the exact
    sweep to the anytime sampler ([samples] draws, default 64); the
    eviction-policy upper bounds fall back to the trivial schedule.
    Never raises on resource exhaustion — every failure is recorded in
    the row. *)

val governed_engines : (string * kind) list
(** Every sequential engine, in output order: ["floor"],
    ["wavefront"], ["partition-h"], ["partition-u"], ["span"],
    ["optimal"], ["belady"], ["lru"]. *)

(** {2 The bound pipeline}

    A row is an engine's rung list (its {!plan}) run by the one ladder
    runner ({!run_ladder}).  The plan depends on the {!mode} and the
    graph's size alone, never on how the rows are executed: in-process
    ({!analyze}, {!analyze_governed}) or one pool worker per row
    ([dmc bounds]) give the same rows. *)

type mode =
  | Report of { optimal_limit : int }
      (** no budget: one rung per engine and no fallbacks; an
          exhaustive search runs only within its size gate
          (partition-h at <= 9 compute vertices, partition-u at <= 22
          compute and <= 62 vertices, span at <= 16 vertices, optimal at
          <= [min optimal_limit 20] vertices) and is refused beyond it *)
  | Ladder of { timeout : float option; node_budget : int option }
      (** the fallback ladders, ungated, each non-terminal rung under a
          fresh budget of [timeout] seconds and/or [node_budget] ticks *)

type step =
  | Rung of string * (Dmc_util.Budget.t option -> int)
      (** a rung's name and its computation, given the rung's budget *)
  | Refused of string * string
      (** rung name and reason: recorded as a [Too_large] failure
          without running, so it costs nothing *)

val plan :
  ?samples:int -> ?wavefront:row Lazy.t -> mode -> Cdag.t -> s:int ->
  string -> step list
(** A sequential engine's rungs under [mode], in attempt order, gated
    by the graph's size alone.  [samples] (default 64) sizes the
    wavefront sampler; [wavefront] is the run's wavefront row, whose
    value is the middle rung of the other lower-bound ladders — when
    omitted it is derived on first use (value-deterministic: the
    sampler seed is fixed).  Raises [Invalid_argument] on a name not in
    {!governed_engines}. *)

val run_ladder : mode -> engine:string -> kind:kind -> step list -> row
(** The one ladder runner, for both engine families: try each step in
    order, each rung under a fresh budget from [mode] ({!Ladder} only;
    the terminal ["floor"] and ["trivial"] rungs and the ["floor"]
    engine run unbudgeted), until one succeeds.  Each rung is an
    [engine/rung] span. *)

val row :
  ?samples:int -> ?wavefront:row Lazy.t -> mode -> Cdag.t -> s:int ->
  string -> row
(** One sequential engine's row: its {!plan} run by {!run_ladder}.
    With [wavefront], the ["wavefront"] engine's row is that row. *)

val governed_row :
  ?timeout:float -> ?node_budget:int -> ?samples:int -> Cdag.t -> s:int ->
  string -> row
(** [row] under the {!Ladder} plan. *)

val fits_trivial : Cdag.t -> s:int -> bool
(** [S >= max in-degree + 1]: the trivial schedule's precondition. *)

val assemble_governed : Cdag.t -> s:int -> row list -> governed
(** The best-bound summary of independently produced rows (lower and
    exact rows feed [gov_best_lb]; upper rows and non-degraded exact
    rows feed [gov_best_ub]). *)

val report_of_rows : Cdag.t -> s:int -> row list -> report
(** Read {!Report}-plan rows (one per {!governed_engines} entry) back
    into a {!report}: best = max of floor, wavefront, partition-h,
    partition-u and span.  A rung refused by size, or a row whose
    worker was lost (a failed ["worker"] rung, see {!of_verdict}),
    leaves an optional value out; a lost floor, wavefront, belady or
    lru row raises [Failure "<engine>: worker lost (<failure>)"], since
    the report has no status column to show a stand-in value.  Any
    other engine failure is raised as [Failure] with the engine's
    message. *)

val of_verdict :
  steps:step list -> engine:string -> kind:kind -> elapsed:float ->
  Dmc_runtime.Pool.verdict -> row
(** A pool verdict read back as a row: the worker's own row, or — for a
    worker lost to a crash, hard kill, cancellation or protocol break —
    the last of [steps] (the engine's {!Ladder} plan, whose last rung is
    its terminal ["floor"] or ["trivial"]) with the verdict recorded as
    a failed ["worker"] rung and [elapsed] as the time. *)

val row_to_json : row -> Dmc_util.Json.t
val row_of_json : Dmc_util.Json.t -> row option
(** Inverses, up to the derived [status] field; the worker protocol
    ships rows as [row_to_json] frames. *)

val pp_governed : Format.formatter -> governed -> unit
(** Status table: one line per engine with value, status, winning rung
    and elapsed time, then the best-bound summary. *)

val governed_to_json : governed -> Dmc_util.Json.t

val certify_wavefront : ?samples:int -> Cdag.t -> s:int -> bool
(** Re-derive the wavefront component of {!analyze}'s bound with a
    Menger witness and verify it from first principles
    ({!Wavefront.verify_witness}): find the maximizing vertex of the
    input-stripped graph (exactly below {!Wavefront.exact_threshold}
    vertices, else over [samples] draws), extract its disjoint-path
    witness, and check both the paths and that their count equals the
    min-cut value.  [true] means the certificate checks out. *)
