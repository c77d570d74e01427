(** Parameter-grid sweeps over the workload registry.

    A sweep is the paper's experimental shape as data: workload
    templates × sizes × fast-memory capacities × processor counts ×
    engines × seeds, expanded into a deterministic row list where each
    row is one governed bound computation ({!Dmc_core.Engine_job}).  The [dmc
    sweep] driver shards these rows across a host fleet; this module
    owns everything that must {e not} depend on the fleet — the grid
    algebra, the expansion order, the grid signature and the merged
    report — so the same grid produces byte-identical reports whatever
    ran it.

    Templates are {!Dmc_gen.Workload} specs with optional [{n}] and
    [{seed}] placeholders: ["jacobi1d:{n},4"] expands over [--sizes],
    ["layered:{seed},5,30"] over [--seeds], a plain ["fft:6"] over
    neither.  Placeholder axes are validated both ways — a template
    using [{n}] without sizes is an error, and so are sizes no
    template consumes (a typo'd axis silently sweeping nothing would
    invalidate whatever cited the report). *)

type row = {
  workload : string;  (** concrete registry spec, placeholders substituted *)
  s : int;
  p : int;  (** processor count; 1 unless a p axis was given *)
  engine : string;
      (** a {!Dmc_core.Bounds.governed_engines} or
          {!Dmc_core.Mp_bounds.engines} name *)
}

type t

val make :
  specs:string list ->
  ?sizes:int list ->
  ?seeds:int list ->
  ss:int list ->
  ?ps:int list ->
  ?engines:string list ->
  ?timeout:float ->
  ?node_budget:int ->
  unit ->
  (t, string) result
(** Validate and expand a grid.  [engines] defaults to every governed
    engine; [ps] defaults to [[1]].  Errors: empty [specs]/[ss],
    non-positive [ss] or [ps], unknown engine names, placeholder/axis
    mismatches in either direction, a non-trivial [ps] with no
    p-sensitive engine selected (the axis would silently duplicate
    rows), and any concrete spec that fails registry
    name/arity/integer checks. *)

val rows : t -> row list
(** Every row, in the canonical order: template, then size, then seed,
    then [s], then [p], then engine.  This order {e is} the submission order and
    hence the committed order — the determinism contract starts here. *)

val timeout : t -> float option
val node_budget : t -> int option

val job : t -> row -> (Dmc_core.Engine_job.t, string) result
(** The serializable bound computation for one row.  Graphs are built
    once per concrete workload spec and memoized inside [t]. *)

val degraded :
  t -> row -> Dmc_runtime.Pool.verdict -> (Dmc_util.Json.t, string) result
(** The coordinator-side payload for a row whose worker was lost for
    job-attributed reasons (host-attributed failures are re-sharded by
    the pool instead): {!Dmc_core.Engine_job.of_verdict} with zero
    elapsed, serialized like a worker row.  The run never loses a row
    to a lost worker — it degrades it. *)

val parse_int_list : string -> (int list, string) result
(** Comma-separated integers with inclusive ranges:
    ["8,12,16..19"] is [[8; 12; 16; 17; 18; 19]]. *)

val signature : t -> Dmc_util.Json.t
(** Canonical JSON of the grid parameters (not the expansion).  Two
    grids with equal signatures expand to equal row lists; [dmc sweep]
    hands it to its checkpoint, so a resume against a different grid is
    refused instead of silently mis-aligning committed rows. *)

type host_stat = {
  h_name : string;
  h_remote : bool;  (** command transport (vs. the local fork backend) *)
  h_verdict : string;  (** final health verdict, e.g. ["alive"] *)
  h_dispatched : int;
  h_completed : int;
  h_failures : int;
  h_resharded : int;
  h_quarantines : int;
  h_quarantine_log : (float * float) list;
      (** [(entered, until)] absolute times, newest first; [until] is
          [infinity] for a poisoning *)
}
(** One host's run ledger, as neutral data: the [dmc sweep] driver
    converts its {!Dmc_runtime.Host.t} records into these after the
    run (this library never sees the runtime). *)

val host_health_doc : run_started:float -> host_stat list -> Doc.block list
(** The opt-in ([dmc sweep --host-health]) fleet timeline: a section
    with per-host dispatch/completion/failure/reshard counts and the
    quarantine intervals relative to [run_started] ([+12.3s..+14.3s],
    [inf] for a poisoning).  Everything here is {e run}-dependent —
    wall-clock intervals, host placement — which is exactly why it
    rides behind a flag: the flag-less report keeps the byte-identity
    contract {!doc} documents. *)

val doc : t -> results:(Dmc_util.Json.t option) list -> Doc.t
(** The merged report: one payload per row in row order ([None] =
    the row never committed — cancelled run), rendered as a status
    table plus per-(workload, s, p) best-bound sandwich checks, one
    per bound family present (sequential I/O, mp communication, mp
    makespan, pc I/O — distinct quantities never sandwich each
    other).  Only
    value-deterministic fields appear (no elapsed times, no host
    names): the report is byte-identical for any [--jobs], any host
    fleet and any transient-failure schedule. *)
