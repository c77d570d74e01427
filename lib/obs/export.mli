(** Exporters over the registry: profile tables, JSON, Chrome trace.

    Three views of the same recorded data:
    - {!profile} — human-readable, four sections in a fixed order:
      counters, histograms, gauges, spans.  Counters and histogram
      quantiles are fully deterministic (work counts only) and are what
      the CI smoke byte-compares between [--jobs 1] and [--jobs 2];
      gauges and spans carry memory/wall-clock readings and are
      expected to vary.
    - {!to_json} — machine-readable counters + histogram quantiles +
      gauges + span aggregates with stable key ordering, used by
      [bench/main.exe bench --json] to seed perf baselines.
    - {!chrome_trace} — the Chrome trace-event format ([ph:"X"]
      complete slices, microsecond [ts]/[dur], per-worker [tid]),
      loadable in [chrome://tracing] and Perfetto. *)

val counters_table : unit -> string
(** All registered counters in name order, via {!Dmc_util.Table}. *)

val profile : unit -> string
(** Counters, histograms, gauges and spans sections in that order,
    plus a dropped-span notice if the event buffer overflowed. *)

val to_json : unit -> Dmc_util.Json.t

val prometheus : unit -> string
(** Prometheus text exposition (format 0.0.4) of the registry: every
    name sanitized into [[a-zA-Z0-9_:]] and prefixed [dmc_]; counters
    as [counter], gauges as [gauge], histograms as [summary] with
    [quantile]-labelled p50/p90/p99 series plus [_sum]/[_count].
    Deterministic rendering (name order, fixed number formats) — what
    [dmc query --metrics] prints for scrapers. *)

val chrome_trace : unit -> Dmc_util.Json.t
(** The [{"traceEvents": [...]}] document, including process/thread
    name metadata.  Each registered {!Registry.source} is a [pid]
    lane — 0 for this process, one per remote host in a merged fleet
    trace ([tid 0] = supervisor, [tid j+1] = pool job [j]); events
    whose attrs carry [("ph", "i")] render as process-scoped instant
    events. *)

val write_chrome_trace : string -> unit
(** Write {!chrome_trace} compactly to a file. *)
