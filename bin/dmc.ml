(* dmc — data-movement complexity toolkit.

   Subcommands:
     dmc gen <family> ...       emit a CDAG in the text format (or DOT)
     dmc bounds ...             run every bound engine on a CDAG
     dmc game ...               play a scheduling strategy and validate it
     dmc machines               print the Table-1 machine list
     dmc experiment [name ...]  run the paper's evaluation experiments *)

open Cmdliner

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

(* Run a command body, turning expected exceptions into clean error
   messages and a non-zero exit. *)
let guarded f =
  try f () with
  | Failure msg | Invalid_argument msg ->
      Format.eprintf "dmc: %s@." msg;
      exit 1
  | Dmc_core.Optimal.Too_large msg ->
      Format.eprintf "dmc: %s@." msg;
      exit 1

(* ------------------------------------------------------------------ *)
(* Run control for the batch drivers (bounds, experiment, sweep).
   Dmc_runtime.Run owns the wiring: interrupts, the pool config, and
   the choice between the supervised pool and an in-process run. *)

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Number of supervised worker processes.  With N > 1 each unit \
               (engine row for $(b,bounds), window for $(b,bounds \
               --stream), part for $(b,experiment), row for $(b,sweep)) \
               runs in its own forked child under a hard deadline; results \
               are committed in submission order, so the output is \
               byte-identical to a run with N = 1.  It chooses where the \
               units run, never which engines or rungs run.")

let job_timeout_arg =
  Arg.(value & opt (some float) None & info [ "job-timeout" ] ~docv:"SECONDS"
         ~doc:"Hard per-attempt wall-clock deadline for each worker: the \
               supervisor SIGKILLs an attempt that overruns (no reliance on \
               cooperative budget polling) and degrades or retries it.")

let retries_arg =
  Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N"
         ~doc:"Extra attempts for a worker that timed out, crashed or broke \
               the result protocol (exponential backoff with deterministic \
               jitter).  Deterministic engine failures are never retried.")

let fault_arg =
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC"
         ~doc:"Deterministic fault injection in the workers, for testing the \
               supervision paths: comma-separated kind:job[:attempts] \
               clauses with kind one of hang, abort, garbage and job the \
               1-based submission index (e.g. 'hang:3,abort:1:1').  Also \
               read from \\$DMC_FAULT.")

(* ------------------------------------------------------------------ *)
(* Shared CDAG source: either a named generator or a file.            *)

let generator_doc = Dmc_gen.Workload.spec_doc ()

let parse_spec = Dmc_gen.Workload.parse_exn

let load_cdag ~spec ~file =
  match (spec, file) with
  | Some spec, None -> parse_spec spec
  | None, Some path -> (
      match Dmc_cdag.Serialize.of_file path with
      | Ok g -> g
      | Error msg -> failwith ("cannot parse " ^ path ^ ": " ^ msg))
  | _ -> failwith "give exactly one of --gen or --file"

let spec_arg =
  Arg.(value & opt (some string) None
       & info [ "g"; "gen"; "spec" ] ~docv:"SPEC" ~doc:generator_doc)

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"PATH"
         ~doc:"Read the CDAG from a text-format file (see Dmc_cdag.Serialize).")

let s_arg =
  Arg.(value & opt int 8
       & info [ "s"; "S" ] ~docv:"S" ~doc:"Fast-memory capacity in words.")

let timeout_arg =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Wall-clock budget. For $(b,bounds): selects the governed table \
               (as $(b,--budget) does) and bounds each engine ladder rung, with \
               graceful degradation down the fallback ladder instead of failure; \
               with $(b,--stream), overall: windows not started when it expires \
               fall back to the trivial bound and count as degraded. For \
               $(b,experiment): overall; the run checkpoints and stops cleanly \
               between parts when it expires.")

let node_budget_arg =
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"NODES"
         ~doc:"Search-node budget per engine ladder rung (each engine ticks the \
               guard once per search step).  For $(b,bounds) it selects the \
               governed table.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON timeline of the run to $(docv) \
               (loadable in chrome://tracing or Perfetto). Like $(b,--profile), \
               it runs every unit under the supervised pool, even at \
               $(b,--jobs) 1, so per-worker spans are merged into the trace \
               under their job's lane; stdout is unchanged.")

let profile_arg =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"Print the instrumentation profile (work counters, histogram \
               quantiles, GC/memory gauges, then span timings) after the run. \
               The counter and histogram sections count algorithmic work, \
               never time, so they are byte-identical across $(b,--jobs) \
               widths and repeat runs (every unit runs under the supervised \
               pool, even at $(b,--jobs) 1); gauges and spans are not.  \
               Everything before the profile is what the run prints \
               without it.")

let progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Render a live progress line on stderr while the supervised \
               pool runs: jobs done/running/retrying, the running workers' \
               current phase (from heartbeats), an ETA and resident memory. \
               Runs every unit under the pool, even at $(b,--jobs) 1, which \
               changes where units run, never what they compute; stdout is \
               untouched, so output and checkpoints stay byte-identical with \
               it on or off.")

(* The run-control flags: Run settings whose faults are parsed (inside
   the command's error guard) by [start_batch]. *)
type batch = {
  run : Dmc_runtime.Run.settings;
  fault : string option;
  trace : string option;
  profile : bool;
}

let batch_term =
  let make jobs job_timeout retries fault trace profile progress =
    let observed = trace <> None || profile in
    let run =
      {
        Dmc_runtime.Run.default with
        jobs;
        job_timeout;
        retries;
        progress;
        observed;
      }
    in
    { run; fault; trace; profile }
  in
  Term.(
    const make $ jobs_arg $ job_timeout_arg $ retries_arg $ fault_arg
    $ trace_arg $ profile_arg $ progress_arg)

(* Start a batch command: interrupt handlers, the registry when a trace,
   profile or postmortem wants it, and the final Run settings. *)
let start_batch ?postmortem b =
  Dmc_runtime.Run.install_interrupt_handlers ();
  if b.run.observed || postmortem <> None then
    Dmc_obs.Registry.set_enabled true;
  { b.run with faults = Dmc_runtime.Run.faults b.fault; postmortem }

let emit_obs b =
  Option.iter Dmc_obs.Export.write_chrome_trace b.trace;
  if b.profile then begin
    print_string (Dmc_obs.Export.profile ());
    flush stdout
  end

(* After an interrupted batch: write the trace/profile the run has so
   far, then exit with the signal's code. *)
let exit_if_interrupted b =
  Option.iter
    (fun code ->
      emit_obs b;
      exit code)
    (Dmc_runtime.Run.interrupted ())

(* ------------------------------------------------------------------ *)
(* dmc gen                                                            *)

let gen_cmd =
  let run spec file output dot =
    setup_logs ();
    guarded @@ fun () ->
    let g = load_cdag ~spec ~file in
    let text = if dot then Dmc_cdag.Dot.to_string g else Dmc_cdag.Serialize.to_string g in
    (match output with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text));
    Format.printf "%a@." Dmc_cdag.Cdag.pp_stats g
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Write to a file instead of stdout.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of the text format.") in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a workload CDAG")
    Term.(const run $ spec_arg $ file_arg $ output $ dot)

(* ------------------------------------------------------------------ *)
(* dmc bounds                                                         *)

(* Engine enumeration for --list-engines: the governed (sequential)
   family's one-liners live here; the multi-processor family carries
   its own doc strings in the registry. *)
let governed_engine_docs =
  [
    ("floor", "I/O floor: every input read + every non-input output written");
    ("wavefront", "min-cut wavefront bound (Lemma 2), exact then sampled");
    ("partition-h", "Lemma 1 with the exhaustive H(2S) partition count");
    ("partition-u", "Corollary 1 with the exhaustive U(2S) vertex count");
    ("span", "Savage S-span lower bound");
    ("optimal", "exhaustive optimal-game search (tiny graphs, exact)");
    ("belady", "Belady-policy schedule: a certified upper bound");
    ("lru", "LRU-policy schedule: a certified upper bound");
  ]

let print_engine_list () =
  let kind_str k = Dmc_core.Bounds.kind_to_string k in
  Format.printf "governed engines (sequential red-blue-white game):@.";
  List.iter
    (fun (name, kind) ->
      let doc =
        match List.assoc_opt name governed_engine_docs with
        | Some d -> d
        | None -> ""
      in
      Format.printf "  %-12s %-6s %s@." name (kind_str kind) doc)
    Dmc_core.Bounds.governed_engines;
  Format.printf
    "multi-processor engines (mp/pc games; p from bounds -p, sweep -p, or \
     a job's p field):@.";
  List.iter
    (fun (e : Dmc_core.Mp_bounds.info) ->
      Format.printf "  %-12s %-6s %s@." e.name (kind_str e.kind) e.doc)
    Dmc_core.Mp_bounds.engines

let print_symbolic_bound (b : Dmc_core.Symbolic_bounds.t) =
  let module Sb = Dmc_core.Symbolic_bounds in
  Format.printf "symbolic lower bound for %s (S=%d, tile=%d):@." b.Sb.spec
    b.Sb.s b.Sb.tile;
  Format.printf "  instance: n=%d, %d vertices (never materialized)@."
    b.Sb.size b.Sb.n_vertices;
  Format.printf "  LB(n) = %s@." (Dmc_symbolic.Expr.to_string b.Sb.formula);
  Format.printf "  LB    = %d@." b.Sb.value;
  List.iter
    (fun c ->
      Format.printf "  class %-14s x %-10d bound=%-8d count(n)=%s@."
        c.Sb.cls_name c.Sb.cls_count_now c.Sb.cls_bound
        (Dmc_symbolic.Expr.to_string c.Sb.cls_count))
    b.Sb.classes;
  match b.Sb.dropped with
  | Some d -> Format.printf "  dropped: %s@." d
  | None -> ()

let bounds_cmd =
  let run spec file s optimal certify json timeout node_budget batch
      list_engines p symbolic tile stream window =
    setup_logs ();
    guarded @@ fun () ->
    if list_engines then begin
      print_engine_list ();
      exit 0
    end;
    let settings = start_batch batch in
    if symbolic then begin
      (* the whole point is never materializing, so only --gen specs
         make sense here; the spec is parsed, not built *)
      let spec =
        match (spec, file) with
        | Some sp, None -> sp
        | _ ->
            failwith
              "--symbolic requires --gen SPEC (and no --file): the instance \
               is never materialized"
      in
      (match Dmc_core.Symbolic_bounds.bound ?tile ~spec ~s () with
      | Error m -> failwith m
      | Ok b ->
          if json then
            print_endline
              (Dmc_util.Json.to_string (Dmc_core.Symbolic_bounds.to_json b))
          else print_symbolic_bound b);
      emit_obs batch;
      exit 0
    end;
    if stream then begin
      let spec =
        match (spec, file) with
        | Some sp, None -> sp
        | _ ->
            failwith
              "--stream requires --gen SPEC (and no --file): the graph is \
               enumerated window by window, never held whole"
      in
      let imp =
        match Dmc_gen.Workload.parse_implicit spec with
        | Ok imp -> imp
        | Error m -> failwith m
      in
      let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
      let r =
        Dmc_core.Streaming.wavefront_sum ?window ~settings ?deadline imp ~s
      in
      (if json then
         print_endline
           (Dmc_util.Json.to_string
              (Dmc_util.Json.Obj
                 [
                   ("kind", Dmc_util.Json.String "dmc-stream-bound");
                   ("spec", Dmc_util.Json.String spec);
                   ("s", Dmc_util.Json.Int s);
                   ("total", Dmc_util.Json.Int r.Dmc_core.Streaming.total);
                   ("windows", Dmc_util.Json.Int r.Dmc_core.Streaming.n_windows);
                   ("degraded", Dmc_util.Json.Int r.Dmc_core.Streaming.degraded);
                 ]))
       else
         Format.printf
           "streamed wavefront bound for %s (S=%d):@.  LB >= %d  (%d windows, \
            %d degraded)@."
           spec s r.Dmc_core.Streaming.total r.Dmc_core.Streaming.n_windows
           r.Dmc_core.Streaming.degraded);
      exit_if_interrupted batch;
      emit_obs batch;
      exit 0
    end;
    let g = load_cdag ~spec ~file in
    (* One path for every table: the family comes from -p, the mode from
       --timeout/--budget, and Run.batch runs one row per engine.  The
       run-control flags choose only its backend (in-process, or one
       forked worker per row that inherits [g]), never the rows. *)
    let module B = Dmc_core.Bounds in
    let module E = Dmc_core.Engine_job in
    let engines =
      match p with
      | None -> List.map fst B.governed_engines
      | Some _ -> Dmc_core.Mp_bounds.engine_names
    in
    let mode =
      if timeout = None && node_budget = None then
        B.Report { optimal_limit = (if optimal then 20 else 0) }
      else B.Ladder { timeout; node_budget }
    in
    let wavefront = lazy (B.row mode g ~s "wavefront") in
    let outcomes =
      Dmc_runtime.Run.batch settings
        ~worker:(fun _ engine ->
          Ok (B.row_to_json (E.row ~wavefront ?p mode g ~s engine)))
        engines
    in
    let rows =
      List.mapi
        (fun i engine ->
          let o = outcomes.(i) in
          E.of_verdict ?p g ~s ~engine ~elapsed:o.Dmc_runtime.Pool.elapsed
            o.Dmc_runtime.Pool.verdict)
        engines
    in
    let print_json j = print_endline (Dmc_util.Json.to_string j) in
    (match (p, mode) with
    | Some p, _ ->
        if json then
          print_json
            (Dmc_util.Json.Obj
               [
                 ("kind", Dmc_util.Json.String "dmc-mp-bounds");
                 ("p", Dmc_util.Json.Int p);
                 ("s", Dmc_util.Json.Int s);
                 ("rows", Dmc_util.Json.List (List.map B.row_to_json rows));
               ])
        else begin
          Format.printf "multi-processor bounds at p=%d, S=%d:@." p s;
          List.iter
            (fun (r : B.row) ->
              Format.printf "  %-12s %-6s %-8s rung=%-8s %s@." r.engine
                (B.kind_to_string r.kind)
                (match r.value with Some v -> string_of_int v | None -> "-")
                r.rung (B.row_status r))
            rows
        end
    | None, B.Report _ ->
        (* A report has no status column: an interrupted run prints no
           report rather than its cancelled rows' stand-in values. *)
        exit_if_interrupted batch;
        let report = B.report_of_rows g ~s rows in
        if json then print_json (B.report_to_json report)
        else Format.printf "%a@." B.pp_report report
    | None, B.Ladder _ ->
        let gr = B.assemble_governed g ~s rows in
        if json then print_json (B.governed_to_json gr)
        else Format.printf "%a" B.pp_governed gr);
    exit_if_interrupted batch;
    if certify then
      Format.printf "wavefront certificate verifies: %b@."
        (B.certify_wavefront g ~s);
    emit_obs batch
  in
  let optimal =
    Arg.(value & flag & info [ "optimal" ]
           ~doc:"Also run the exhaustive optimal-game search (<= 20 vertices).")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ]
           ~doc:"Extract and verify a Menger witness for the wavefront bound.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text.") in
  let list_engines =
    Arg.(value & flag & info [ "list-engines" ]
           ~doc:"List every bound engine (governed and multi-processor) \
                 with a one-line description, then exit.")
  in
  let p_arg =
    Arg.(value & opt (some int) None & info [ "p" ] ~docv:"P"
           ~doc:"Run the multi-processor/pc engine family at $(docv) \
                 processors (per-processor capacity -s) instead of the \
                 sequential engines.")
  in
  let symbolic =
    Arg.(value & flag & info [ "symbolic" ]
           ~doc:"Symbolic recombination: split the (regular) generator into \
                 isomorphism classes of tiles, bound one representative per \
                 class with the wavefront engine, and recombine the counts \
                 into a closed form in n.  The instance is never \
                 materialized, so billion-node specs return in seconds.  \
                 Requires $(b,--gen); supports chain, tree, diamond \
                 (square), fft and jacobi1d/2d/3d.  The value agrees \
                 exactly with the materialized engine wherever both run.")
  in
  let tile_arg =
    Arg.(value & opt (some int) None & info [ "tile" ] ~docv:"W"
           ~doc:"Tile width for $(b,--symbolic) (butterfly stages per band \
                 for fft).  Defaults scale with -s.")
  in
  let stream =
    Arg.(value & flag & info [ "stream" ]
           ~doc:"Streamed Theorem-2 sweep: enumerate the (implicit) \
                 generator window by window, bound each window with the \
                 wavefront engine, and sum.  Memory stays proportional to \
                 one window; $(b,--jobs) fans the windows over fork \
                 workers with byte-identical totals at any width.  \
                 Requires $(b,--gen).")
  in
  let window_arg =
    Arg.(value & opt (some int) None & info [ "window" ] ~docv:"N"
           ~doc:"Window size in vertices for $(b,--stream) (default 4096).")
  in
  Cmd.v (Cmd.info "bounds" ~doc:"Lower/upper-bound analysis of a CDAG")
    Term.(const run $ spec_arg $ file_arg $ s_arg $ optimal $ certify $ json
          $ timeout_arg $ node_budget_arg $ batch_term
          $ list_engines $ p_arg $ symbolic $ tile_arg $ stream $ window_arg)

(* ------------------------------------------------------------------ *)
(* dmc game                                                           *)

let game_cmd =
  let run spec file s policy trace =
    setup_logs ();
    guarded @@ fun () ->
    let g = load_cdag ~spec ~file in
    let policy =
      match policy with
      | "lru" -> Dmc_core.Strategy.Lru
      | "belady" -> Dmc_core.Strategy.Belady
      | p -> failwith ("unknown policy: " ^ p)
    in
    let moves = Dmc_core.Strategy.schedule ~policy g ~s in
    (match Dmc_core.Rbw_game.run g ~s moves with
    | Ok stats ->
        Format.printf
          "valid RBW game: io=%d (loads=%d stores=%d), computes=%d, peak red=%d@."
          stats.io stats.loads stats.stores stats.computes stats.max_red;
        Format.printf "%a@." Dmc_core.Trace.pp_summary (Dmc_core.Trace.summarize moves);
        let phases = Dmc_core.Trace.phase_io ~s moves in
        Format.printf "Theorem-1 phases (<= S I/Os each): %d@." (List.length phases)
    | Error e -> Format.printf "INVALID at step %d: %s@." e.step e.reason);
    if trace then begin
      print_string (Dmc_core.Trace.render_timeline moves);
      print_string (Dmc_core.Trace.to_string ~limit:200 moves)
    end
  in
  let policy =
    Arg.(value & opt string "belady" & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Eviction policy: belady or lru.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the move sequence.") in
  Cmd.v (Cmd.info "game" ~doc:"Play a scheduling strategy as a checked RBW pebble game")
    Term.(const run $ spec_arg $ file_arg $ s_arg $ policy $ trace)

(* ------------------------------------------------------------------ *)
(* dmc replay                                                         *)

let replay_cmd =
  let run spec file s moves_path =
    setup_logs ();
    guarded @@ fun () ->
    let g = load_cdag ~spec ~file in
    let text =
      let ic = open_in moves_path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Dmc_core.Trace.parse text with
    | Error msg -> failwith ("cannot parse moves: " ^ msg)
    | Ok moves -> (
        match Dmc_core.Rbw_game.run g ~s moves with
        | Ok stats ->
            Format.printf "VALID: io=%d (loads=%d stores=%d), computes=%d, peak red=%d@."
              stats.io stats.loads stats.stores stats.computes stats.max_red
        | Error e ->
            Format.printf "INVALID at step %d: %s@." e.step e.reason;
            exit 1)
  in
  let moves_path =
    Arg.(required & opt (some string) None & info [ "moves" ] ~docv:"PATH"
           ~doc:"File of moves, one per line (load/store/compute/delete N).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Validate an externally produced move sequence against the RBW rules")
    Term.(const run $ spec_arg $ file_arg $ s_arg $ moves_path)

(* ------------------------------------------------------------------ *)
(* dmc hier                                                           *)

let hier_cmd =
  let run spec file s1 s2 =
    setup_logs ();
    guarded @@ fun () ->
    let g = load_cdag ~spec ~file in
    let moves = Dmc_core.Strategy.hierarchical g ~s1 ~s2 in
    let hier = Dmc_core.Strategy.hierarchical_hierarchy ~s1 ~s2 in
    match Dmc_core.Prbw_game.run hier g moves with
    | Ok stats ->
        Format.printf
          "valid P-RBW game on 1 core, %d-word registers, %d-word cache:@." s1 s2;
        Format.printf "%a" Dmc_machine.Hierarchy.pp_tree hier;
        Format.printf "  registers<->cache: %d words@."
          (Dmc_core.Prbw_game.boundary_traffic stats ~level:2);
        Format.printf "  cache<->memory:    %d words@."
          (Dmc_core.Prbw_game.boundary_traffic stats ~level:3);
        Format.printf "  inputs read: %d, outputs written: %d@." stats.loads stats.stores;
        Format.printf "  sequential lower bounds: LB(S=%d) = %d, LB(S=%d) = %d@." s1
          (Dmc_core.Wavefront.lower_bound g ~s:s1)
          s2
          (Dmc_core.Wavefront.lower_bound g ~s:s2)
    | Error e -> Format.printf "INVALID at step %d: %s@." e.step e.reason
  in
  let s1 =
    Arg.(value & opt int 8 & info [ "s1" ] ~docv:"S1" ~doc:"Register-file capacity in words.")
  in
  let s2 =
    Arg.(value & opt int 64 & info [ "s2" ] ~docv:"S2" ~doc:"Cache capacity in words.")
  in
  Cmd.v
    (Cmd.info "hier"
       ~doc:"Run a CDAG through the three-level hierarchy and report per-boundary traffic")
    Term.(const run $ spec_arg $ file_arg $ s1 $ s2)

(* ------------------------------------------------------------------ *)
(* dmc witness                                                        *)

let witness_cmd =
  let run spec file vertex =
    setup_logs ();
    guarded @@ fun () ->
    let g = load_cdag ~spec ~file in
    let v =
      match vertex with
      | Some v -> v
      | None ->
          (* pick the vertex with the largest wavefront *)
          let best = ref 0 and best_w = ref (-1) in
          Dmc_cdag.Cdag.iter_vertices g (fun x ->
              let w = Dmc_core.Wavefront.min_wavefront g x in
              if w > !best_w then begin
                best_w := w;
                best := x
              end);
          !best
    in
    let w = Dmc_core.Wavefront.witness g v in
    Format.printf "vertex %d (%s): min wavefront = %d@." v
      (Dmc_cdag.Cdag.label g v)
      (max 1 (List.length w.Dmc_core.Wavefront.paths));
    Format.printf "witness verifies: %b@." (Dmc_core.Wavefront.verify_witness g w);
    List.iteri
      (fun i path ->
        Format.printf "  path %d: %s@." i
          (String.concat " -> " (List.map string_of_int path)))
      w.Dmc_core.Wavefront.paths
  in
  let vertex =
    Arg.(value & opt (some int) None & info [ "vertex" ] ~docv:"V"
           ~doc:"Vertex to certify (default: the wavefront maximizer).")
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:"Extract and verify a Menger path witness for a wavefront bound")
    Term.(const run $ spec_arg $ file_arg $ vertex)

(* ------------------------------------------------------------------ *)
(* dmc horizontal                                                     *)

let horizontal_cmd =
  let run spec file procs =
    setup_logs ();
    guarded @@ fun () ->
    let g = load_cdag ~spec ~file in
    let cost, assign = Dmc_core.Optimal.min_balanced_horizontal g ~procs in
    Format.printf
      "balanced-assignment horizontal optimum on %d nodes: %d words@." procs cost;
    let loads = Array.make procs 0 in
    Dmc_cdag.Cdag.iter_vertices g (fun v ->
        if not (Dmc_cdag.Cdag.is_input g v) then
          loads.(assign.(v)) <- loads.(assign.(v)) + 1);
    Array.iteri (fun p w -> Format.printf "  node %d fires %d vertices@." p w) loads
  in
  let procs =
    Arg.(value & opt int 2 & info [ "procs" ] ~docv:"P" ~doc:"Number of nodes.")
  in
  Cmd.v
    (Cmd.info "horizontal"
       ~doc:"Exact minimum inter-node traffic over balanced work assignments (small CDAGs)")
    Term.(const run $ spec_arg $ file_arg $ procs)

(* ------------------------------------------------------------------ *)
(* dmc formula                                                        *)

let formula_cmd =
  let run name bindings raw =
    setup_logs ();
    guarded @@ fun () ->
    let env =
      List.map
        (fun b ->
          match String.index_opt b '=' with
          | Some i ->
              let key = String.sub b 0 i in
              let v = String.sub b (i + 1) (String.length b - i - 1) in
              (key, float_of_string v)
          | None -> failwith ("binding must look like name=value: " ^ b))
        bindings
    in
    let show label e =
      let e = Dmc_symbolic.Expr.simplify e in
      Format.printf "%s = %s@." label (Dmc_symbolic.Expr.to_string e);
      let free = Dmc_symbolic.Expr.vars e in
      let missing = List.filter (fun v -> not (List.mem_assoc v env)) free in
      if missing = [] then
        Format.printf "  value: %g@." (Dmc_symbolic.Expr.eval ~env e)
      else
        Format.printf "  free variables: %s@." (String.concat ", " missing)
    in
    match (name, raw) with
    | Some name, None -> (
        match Dmc_symbolic.Formulas.find name with
        | Some e -> show name e
        | None ->
            failwith
              (Printf.sprintf "unknown formula %s (known: %s)" name
                 (String.concat ", " (List.map fst Dmc_symbolic.Formulas.all))))
    | None, Some text -> (
        match Dmc_symbolic.Expr.parse text with
        | Ok e -> show "expr" e
        | Error msg -> failwith ("parse error: " ^ msg))
    | None, None ->
        List.iter
          (fun (n, e) ->
            Format.printf "%-24s %s@." n
              (Dmc_symbolic.Expr.to_string (Dmc_symbolic.Expr.simplify e)))
          Dmc_symbolic.Formulas.all
    | Some _, Some _ -> failwith "give either a formula name or --expr, not both"
  in
  let fname =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Formula name (omit to list all).")
  in
  let bindings =
    Arg.(value & opt_all string [] & info [ "set" ] ~docv:"VAR=VALUE"
           ~doc:"Bind a variable for evaluation (repeatable).")
  in
  let raw =
    Arg.(value & opt (some string) None & info [ "expr" ] ~docv:"EXPR"
           ~doc:"Evaluate an ad-hoc expression instead of a named formula.")
  in
  Cmd.v (Cmd.info "formula" ~doc:"Print and evaluate the paper's bounds symbolically")
    Term.(const run $ fname $ bindings $ raw)

(* ------------------------------------------------------------------ *)
(* dmc machines                                                       *)

let machines_cmd =
  let run () =
    setup_logs ();
    guarded @@ fun () ->
    Dmc_util.Table.print (Dmc_analysis.Table1.table ())
  in
  Cmd.v (Cmd.info "machines" ~doc:"Print the Table-1 machine specifications")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* dmc bench-diff                                                     *)

let bench_diff_cmd =
  let run old fresh max_regress work_only =
    setup_logs ();
    guarded @@ fun () ->
    let load path =
      match Dmc_util.Checkpoint.load path with
      | Ok json -> json
      | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
    in
    let report =
      Dmc_obs.Baseline.diff ~max_regress ~work_only ~old:(load old)
        ~fresh:(load fresh) ()
    in
    print_string (Dmc_obs.Baseline.render report);
    if report.Dmc_obs.Baseline.regressed > 0 then exit 1
  in
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD"
           ~doc:"Committed baseline JSON (from bench --json or \
                 dmc experiment --json).")
  in
  let fresh_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW"
           ~doc:"Fresh JSON of the same kind to compare against OLD.")
  in
  let max_regress_arg =
    Arg.(value & opt float 10.0 & info [ "max-regress" ] ~docv:"PCT"
           ~doc:"Relative tolerance in percent: a metric regresses only \
                 when NEW exceeds OLD by more than PCT.")
  in
  let work_only_arg =
    Arg.(value & flag & info [ "work-only" ]
           ~doc:"Compare only the machine-independent work metrics \
                 (counter.* and hist.*), ignoring wall-clock and memory.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:"Compare two bench baselines (or experiment JSON reports) and \
             fail on regressions")
    Term.(const run $ old_arg $ fresh_arg $ max_regress_arg $ work_only_arg)

(* ------------------------------------------------------------------ *)
(* dmc experiment                                                     *)

(* A flat, serializable unit of experiment work: one part of one
   experiment.  Units are committed in submission order whichever path
   (in-process, pool, resume) produced them, so the assembled
   documents — and every rendering — are byte-identical across --jobs
   widths and across kill/resume. *)
type experiment_unit = {
  u_exp : string;
  u_part : string;
  u_run : unit -> Dmc_util.Json.t;
  u_last : bool;  (* last part of its experiment *)
}

let experiment_units selected =
  List.concat_map
    (fun (e : Dmc_analysis.Experiment.t) ->
      let n = List.length e.parts in
      List.mapi
        (fun i (p : Dmc_analysis.Experiment.part) ->
          { u_exp = e.name; u_part = p.part; u_run = p.run; u_last = i = n - 1 })
        e.parts)
    selected

(* The [--json] report's own schema version, independent of the
   checkpoint's. *)
let experiment_report_version = 2

let experiment_cmd =
  let run names json md timeout checkpoint resume batch =
    setup_logs ();
    guarded @@ fun () ->
    let settings = start_batch batch in
    if json && md then failwith "--json and --md are mutually exclusive";
    let mode = if json then `Json else if md then `Md else `Text in
    let registry = Dmc_analysis.Report.experiments in
    let selected =
      match names with
      | [] -> registry
      | names ->
          List.map
            (fun n ->
              match Dmc_analysis.Report.find n with
              | Some e -> e
              | None ->
                  failwith
                    (Printf.sprintf "unknown experiment %s (known: %s)" n
                       (String.concat ", "
                          (List.map
                             (fun (e : Dmc_analysis.Experiment.t) -> e.name)
                             registry))))
            names
    in
    let units = experiment_units selected in
    let unit_arr = Array.of_list units in
    let total = List.length units in
    let ckpt_path = if checkpoint <> None then checkpoint else resume in
    let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
    let n_committed = ref 0 in
    let all_ok = ref true in
    let docs_rev = ref [] in
    (* Payloads of the experiment currently being filled, newest first.
       Units commit strictly in submission order and an experiment's
       parts are contiguous, so one accumulator suffices. *)
    let pending_payloads = ref [] in
    let finalize_experiment name =
      let payloads = List.rev !pending_payloads in
      pending_payloads := [];
      match Dmc_analysis.Report.find name with
      | None -> ()
      | Some e -> (
          match e.doc_of_parts payloads with
          | doc ->
              if not (Dmc_analysis.Doc.ok doc) then all_ok := false;
              (match mode with
              | `Text ->
                  print_string (Dmc_analysis.Doc.to_text doc);
                  flush stdout
              | `Md ->
                  print_string (Dmc_analysis.Doc.to_markdown doc);
                  flush stdout
              | `Json -> docs_rev := Dmc_analysis.Doc.to_json doc :: !docs_rev)
          | exception exn ->
              all_ok := false;
              Format.eprintf "dmc: experiment %s: cannot assemble report: %s@."
                name (Printexc.to_string exn))
    in
    (* Commit one finished unit: accumulate its payload and render the
       experiment once its last part lands.  Replayed, in-process and
       pooled units all funnel through here in unit order, so stdout is
       byte-identical whichever backend — and however many workers —
       produced the payloads.  A null payload is a part that produced
       nothing: the run fails, replayed or not. *)
    let commit_unit u payload =
      incr n_committed;
      if payload = Dmc_util.Json.Null then all_ok := false;
      pending_payloads := payload :: !pending_payloads;
      if u.u_last then finalize_experiment u.u_exp
    in
    let finish ~stopped_early =
      let stopped why =
        Format.eprintf "dmc: %s after %d/%d part(s)%s@." why !n_committed
          total
          (Dmc_runtime.Run.resume_hint ckpt_path)
      in
      if Dmc_runtime.Run.interrupted () <> None then stopped "interrupted";
      exit_if_interrupted batch;
      emit_obs batch;
      if stopped_early then begin
        stopped "timeout reached";
        exit 0
      end;
      (match mode with
      | `Text ->
          Printf.printf "\nOVERALL: %s\n"
            (if !all_ok then "ALL CHECKS PASSED" else "SOME CHECKS FAILED")
      | `Md ->
          Printf.printf "\n---\n\n**OVERALL:** %s\n"
            (if !all_ok then "ALL CHECKS PASSED" else "SOME CHECKS FAILED")
      | `Json ->
          let module J = Dmc_util.Json in
          print_string
            (J.to_string
               (J.Obj
                  [
                    ("kind", J.String "dmc-experiment-report");
                    ("v", J.Int experiment_report_version);
                    ("ok", J.Bool !all_ok);
                    ("experiments", J.List (List.rev !docs_rev));
                  ]));
          print_newline ());
      if not !all_ok then exit 1
    in
    (* One job per part, committed in submission order.  The unit is
       shipped as data: the worker re-resolves the part by (experiment,
       part) name through the registry.  A worker lost to a crash, hard
       kill or protocol break degrades to an in-process rerun of the
       same part, so every unit still yields a payload. *)
    let module Pool = Dmc_runtime.Pool in
    let worker _ u =
      match Dmc_analysis.Part_job.run { exp = u.u_exp; part = u.u_part } with
      | Ok payload -> Ok payload
      | Error msg -> Error (Dmc_util.Budget.Invalid_input msg)
    in
    let on_result i outcome =
      let u = unit_arr.(i) in
      let payload =
        match outcome.Pool.verdict with
        | Pool.Done payload -> payload
        | v when Pool.is_transient v -> (
            Format.eprintf
              "dmc: experiment %s part %s: worker %s; degrading to an \
               in-process run@."
              u.u_exp u.u_part
              (Pool.verdict_to_string v);
            match u.u_run () with
            | payload -> payload
            | exception exn ->
                Format.eprintf
                  "dmc: experiment %s part %s: in-process fallback failed \
                   too: %s@."
                  u.u_exp u.u_part (Printexc.to_string exn);
                Dmc_util.Json.Null)
        | v ->
            Format.eprintf "dmc: experiment %s part %s: %s@." u.u_exp u.u_part
              (Pool.verdict_to_string v);
            Dmc_util.Json.Null
      in
      commit_unit u payload;
      payload
    in
    let checkpoint =
      {
        Dmc_runtime.Run.path = ckpt_path;
        resume;
        kind = "dmc-experiment";
        signature =
          Dmc_util.Json.List
            (List.map
               (fun (e : Dmc_analysis.Experiment.t) ->
                 Dmc_util.Json.String e.name)
               selected);
      }
    in
    let outcomes =
      Dmc_runtime.Run.batch ?deadline ~checkpoint settings ~worker ~on_result
        units
    in
    finish
      ~stopped_early:
        (Dmc_runtime.Run.cancelled outcomes > 0
        && Dmc_runtime.Run.interrupted () = None)
  in
  let names =
    Arg.(value & pos_all string [] & info [] ~docv:"NAME"
           ~doc:"Experiments to run (default: all). Known: summary table1 \
                 sec3 cg gmres jacobi scaling fft curves multigrid \
                 reductions validate sim.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one structured JSON report instead of text: \
                 $(b,{kind, v, ok, experiments: [...]}), byte-identical \
                 across $(b,--jobs) widths and across kill/resume.  \
                 Consumable by $(b,dmc bench-diff).")
  in
  let md_arg =
    Arg.(value & flag & info [ "md" ]
           ~doc:"Render the reports as Markdown instead of text.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"PATH"
           ~doc:"Write a JSON checkpoint of versioned structured part \
                 payloads after each completed part, so a killed run can \
                 continue with $(b,--resume).")
  in
  let resume =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"PATH"
           ~doc:"Resume from a checkpoint: completed parts are reloaded and \
                 their experiments re-rendered from the stored payloads, so \
                 the final output is byte-identical to an uninterrupted \
                 run.  Also keeps checkpointing to the same file.")
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Run the paper's evaluation experiments")
    Term.(const run $ names $ json_arg $ md_arg $ timeout_arg $ checkpoint
          $ resume $ batch_term)

(* ------------------------------------------------------------------ *)
(* dmc serve / dmc query                                              *)

let socket_arg =
  Arg.(value & opt string "dmc.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path the daemon listens on (and the \
               client connects to).")

let serve_cmd =
  let run socket cache_dir cache_entries max_inflight read_timeout jobs
      job_timeout retries fault =
    setup_logs ();
    guarded @@ fun () ->
    Dmc_runtime.Run.install_interrupt_handlers ();
    let faults = Dmc_runtime.Run.faults fault in
    let cfg =
      {
        Dmc_serve.Server.socket_path = socket;
        cache_dir;
        cache_entries;
        max_inflight;
        read_timeout;
        jobs;
        job_timeout;
        max_retries = retries;
        faults;
        should_drain = (fun () -> Dmc_runtime.Run.interrupted () <> None);
        on_ready =
          Some (fun () -> Format.eprintf "dmc serve: listening on %s@." socket);
      }
    in
    match Dmc_serve.Server.serve cfg with
    | Ok () ->
        (* drain complete: in-flight queries answered, cache persisted *)
        Option.iter exit (Dmc_runtime.Run.interrupted ())
    | Error msg ->
        Format.eprintf "dmc serve: %s@." msg;
        exit 1
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persist the content-addressed result cache to \
                 $(docv)/results.json (atomic write-through: every insert \
                 fsyncs before rename, so kill -9 loses at most in-flight \
                 results).  A restart with the same $(docv) starts warm.")
  in
  let cache_entries =
    Arg.(value & opt int 1024 & info [ "cache-entries" ] ~docv:"N"
           ~doc:"LRU capacity of the result cache, in entries.")
  in
  let max_inflight =
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission bound: queries submitted but not yet answered. \
                 Beyond it new queries get a typed 'overloaded' rejection \
                 instead of queueing unboundedly.")
  in
  let read_timeout =
    Arg.(value & opt float 10. & info [ "read-timeout" ] ~docv:"SECONDS"
           ~doc:"Per-connection deadline from accept to a complete request \
                 frame; a stalled or dribbling client gets a typed protocol \
                 error, never an occupied slot.")
  in
  let fault =
    Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Chaos mode: kind:conn[:attempts] clauses with kind one of \
                 drop, truncate, slow (by 1-based accepted-connection index) \
                 for the server loop, or hang, abort, garbage (by 1-based \
                 query submission index) forwarded to the worker pool.  Also \
                 read from \\$DMC_FAULT.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the bound-query daemon (Unix-socket IPC, supervised \
             workers, persisted result cache)")
    Term.(const run $ socket_arg $ cache_dir $ cache_entries $ max_inflight
          $ read_timeout $ jobs_arg $ job_timeout_arg $ retries_arg $ fault)

let query_once ~socket request =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot connect to %s: %s" socket
               (Unix.error_message e))
      | () -> (
          match
            Dmc_util.Ipc.write_frame fd
              (Dmc_serve.Protocol.request_to_json request)
          with
          | exception Unix.Unix_error (e, _, _) ->
              Error ("connection lost while sending: " ^ Unix.error_message e)
          | () -> (
              match Dmc_util.Ipc.read_frame fd with
              | Ok json -> Ok json
              | Error e -> Error ("reply: " ^ Dmc_util.Ipc.read_error_to_string e))))

(* Capped deterministic backoff around [query_once], so a briefly
   restarting daemon does not fail scripted clients: delays are
   [retry_delay * 2^(i-1)] capped at 10 s, no jitter — a scripted
   client's worst-case latency is computable from its flags. *)
let query_with_retries ~socket ~retries ~retry_delay request =
  let rec go attempt =
    match query_once ~socket request with
    | Ok _ as ok -> ok
    | Error msg when attempt <= retries ->
        let delay =
          Float.min 10. (retry_delay *. (2. ** float_of_int (attempt - 1)))
        in
        Format.eprintf "dmc query: %s; retry %d/%d in %.1fs@." msg attempt
          retries delay;
        Unix.sleepf delay;
        go (attempt + 1)
    | Error _ as e -> e
  in
  go 1

let query_cmd =
  let run socket spec file engine s timeout node_budget samples count ping
      stats metrics shutdown retries retry_delay =
    setup_logs ();
    guarded @@ fun () ->
    let module P = Dmc_serve.Protocol in
    let request =
      if ping then P.Ping
      else if stats then P.Stats
      else if metrics then P.Metrics
      else if shutdown then P.Shutdown
      else
        let source =
          match (spec, file) with
          | Some sp, None -> P.Spec sp
          | None, Some path -> (
              match Dmc_cdag.Serialize.of_file path with
              | Ok g -> P.Graph (Dmc_cdag.Serialize.to_string g)
              | Error msg -> failwith ("cannot parse " ^ path ^ ": " ^ msg))
          | _ ->
              failwith
                "give exactly one of --gen or --file (or --ping, --stats, \
                 --shutdown)"
        in
        P.query ?timeout ?node_budget ~samples source ~engine ~s
    in
    let transport_failures = ref 0 in
    for _ = 1 to count do
      match query_with_retries ~socket ~retries ~retry_delay request with
      | Ok reply when metrics -> (
          (* Print the Prometheus-style text exposition the daemon
             embeds in the snapshot; fall back to the raw reply line
             if an older daemon answered something else. *)
          let module J = Dmc_util.Json in
          match
            Option.bind (J.mem reply "metrics") (fun m ->
                Option.bind (J.mem m "text") J.as_string)
          with
          | Some text -> print_string text
          | None -> print_endline (J.to_string ~indent:false reply))
      | Ok reply ->
          print_endline (Dmc_util.Json.to_string ~indent:false reply)
      | Error msg ->
          incr transport_failures;
          Format.eprintf "dmc query: %s@." msg
    done;
    (* Typed replies — including 'failed' and 'rejected' — exit 0: the
       daemon answered.  Only transport failures (no daemon, dropped or
       truncated connection) are a client error. *)
    if !transport_failures > 0 then exit 1
  in
  let engine =
    let names = List.map fst Dmc_core.Bounds.governed_engines in
    Arg.(value & opt string "wavefront" & info [ "engine" ] ~docv:"NAME"
           ~doc:(Printf.sprintf "Bound engine to query: one of %s."
                   (String.concat ", " names)))
  in
  let samples =
    Arg.(value & opt int 64 & info [ "samples" ] ~docv:"N"
           ~doc:"Sample count for the sampling engines (as in dmc bounds).")
  in
  let count =
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"N"
           ~doc:"Send the query $(docv) times (one connection each), \
                 printing one reply line per attempt — the second and later \
                 ones exercise the daemon's result cache.")
  in
  let ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe instead of a query.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Fetch the daemon's counter/gauge snapshot instead of a query.")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Fetch the daemon's full metrics exposition instead of a \
                 query and print it as Prometheus-style text: counters, \
                 latency-histogram quantiles (request / queue-wait / \
                 engine / cache-lookup), gauges including the cache hit \
                 ratio, and uptime.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Ask the daemon to drain gracefully and exit.")
  in
  let retries =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry a transport failure (no daemon, dropped or truncated \
                 connection) up to $(docv) times before exiting 1, so a \
                 briefly-restarting daemon does not fail scripted clients.  \
                 Typed replies — including 'failed' and 'rejected' — are \
                 answers, never retried.")
  in
  let retry_delay =
    Arg.(value & opt float 0.5 & info [ "retry-delay" ] ~docv:"SECONDS"
           ~doc:"First retry delay; doubles per attempt, capped at 10s. \
                 Deterministic (no jitter), so scripted worst-case latency \
                 is computable from the flags.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Query a running dmc serve daemon (one reply line per request)")
    Term.(const run $ socket_arg $ spec_arg $ file_arg $ engine $ s_arg
          $ timeout_arg $ node_budget_arg $ samples $ count $ ping $ stats
          $ metrics $ shutdown $ retries $ retry_delay)

(* ------------------------------------------------------------------ *)
(* dmc worker — the remote end of a Command transport.  Internal: the
   coordinator (or an ssh wrapper it spawned) writes one call frame to
   stdin; the result frames go to stdout.  Kept a public subcommand so
   'ssh host dmc worker' needs nothing but a dmc binary on the host. *)

let worker_cmd =
  let run () =
    setup_logs ();
    let dispatch job =
      match Dmc_core.Engine_job.of_json job with
      | Ok ej -> Dmc_core.Engine_job.run ej
      | Error _ -> (
          match Dmc_analysis.Part_job.of_json job with
          | Ok pj -> (
              match Dmc_analysis.Part_job.run pj with
              | Ok payload -> Ok payload
              | Error msg -> Error (Dmc_util.Budget.Invalid_input msg))
          | Error _ ->
              Error
                (Dmc_util.Budget.Invalid_input
                   "job is neither a dmc-engine-job nor a dmc-part-job"))
    in
    exit
      (Dmc_runtime.Transport.run_call ~input:Unix.stdin ~output:Unix.stdout
         ~dispatch ())
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Execute one serialized worker call from stdin (internal; \
             spawned by the coordinator's remote transports)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* dmc sweep — the parameter-grid runner over the host fleet.          *)

let host_arg =
  Arg.(value & opt_all string [] & info [ "host" ] ~docv:"SPEC"
         ~doc:"A backend to shard rows onto (repeatable).  \
               $(b,local[:CAP]) is the fork backend; \
               $(b,cmd[:CAP]:COMMAND) spawns COMMAND per attempt and \
               speaks the worker protocol over its stdio; \
               $(b,ssh[:CAP]:DEST) is shorthand for \
               cmd:CAP:'ssh -oBatchMode=yes DEST dmc worker'.  CAP is \
               the host's concurrent-lease capacity (default 1).  A \
               local host is always added when no spec provides one, so \
               a sweep degrades to local-fork-only rather than fail \
               while backends die.  Without any --host, rows run on a \
               local host of capacity --jobs.")

let sweep_cmd =
  let run specs sizes seeds ss ps engines json md timeout node_budget hosts
      checkpoint resume batch postmortem host_health =
    setup_logs ();
    guarded @@ fun () ->
    (* The flight recorder rides the registry, so a postmortem dir arms
       it even when no trace/profile sink was asked for. *)
    let settings = start_batch ?postmortem batch in
    if json && md then failwith "--json and --md are mutually exclusive";
    let module Sweep = Dmc_analysis.Sweep in
    let module Pool = Dmc_runtime.Pool in
    let module Host = Dmc_runtime.Host in
    let parse_axis name = function
      | None -> []
      | Some s -> (
          match Sweep.parse_int_list s with
          | Ok ns -> ns
          | Error e -> failwith (Printf.sprintf "--%s: %s" name e))
    in
    let sizes = parse_axis "sizes" sizes in
    let seeds = parse_axis "seeds" seeds in
    let ss =
      match Sweep.parse_int_list ss with
      | Ok ns -> ns
      | Error e -> failwith ("-s: " ^ e)
    in
    let ps =
      Option.map
        (fun s ->
          match Sweep.parse_int_list s with
          | Ok ns -> ns
          | Error e -> failwith ("-p: " ^ e))
        ps
    in
    let engines =
      Option.map
        (fun s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun e -> e <> ""))
        engines
    in
    let grid =
      match
        Sweep.make ~specs ~sizes ~seeds ~ss ?ps ?engines ?timeout
          ?node_budget ()
      with
      | Ok g -> g
      | Error e -> failwith e
    in
    let hosts =
      match
        List.fold_left
          (fun acc spec ->
            match (acc, Host.parse_spec spec) with
            | Error _, _ -> acc
            | Ok _, Error e -> Error e
            | Ok hs, Ok h -> Ok (h :: hs))
          (Ok []) hosts
      with
      | Error e -> failwith e
      | Ok [] ->
          (* Pool defaults to a local host of capacity jobs; the
             host-health section needs the ledger records, so build
             the same default explicitly when asked to report on it. *)
          if host_health then Host.normalize ~jobs:settings.jobs [] else []
      | Ok hs -> Host.normalize ~jobs:settings.jobs (List.rev hs)
    in
    let rows = Sweep.rows grid in
    let total = List.length rows in
    let jobs_list =
      List.map
        (fun r ->
          match Sweep.job grid r with
          | Ok j -> j
          | Error e -> failwith (Printf.sprintf "%s: %s" r.Sweep.workload e))
        rows
    in
    let ckpt_path = if checkpoint <> None then checkpoint else resume in
    let results = Array.make total None in
    let n_committed = ref 0 in
    let row_arr = Array.of_list rows in
    let run_started = Unix.gettimeofday () in
    let on_result gi outcome =
      let payload =
        match outcome.Pool.verdict with
        | Pool.Done payload -> payload
        | v -> (
            (* Job-attributed loss (host-attributed failures were
               re-sharded before reaching here): degrade the row
               coordinator-side, so the sweep never loses a row. *)
            Format.eprintf "dmc sweep: row %d (%s s=%d p=%d %s): worker \
                            %s; degrading@."
              gi row_arr.(gi).Sweep.workload row_arr.(gi).Sweep.s
              row_arr.(gi).Sweep.p row_arr.(gi).Sweep.engine
              (Pool.verdict_to_string v);
            match Sweep.degraded grid row_arr.(gi) v with
            | Ok p -> p
            | Error _ -> Dmc_util.Json.Null)
      in
      results.(gi) <- Some payload;
      incr n_committed;
      payload
    in
    let checkpoint =
      {
        Dmc_runtime.Run.path = ckpt_path;
        resume;
        kind = "dmc-sweep";
        signature = Sweep.signature grid;
      }
    in
    let _ : Pool.outcome array =
      Dmc_runtime.Run.batch ~hosts
        ~encode:Dmc_core.Engine_job.to_json ~checkpoint settings
        ~worker:(fun _ j -> Dmc_core.Engine_job.run j)
        ~on_result jobs_list
    in
    if Dmc_runtime.Run.interrupted () <> None then
      Format.eprintf "dmc sweep: interrupted after %d/%d row(s)%s@."
        !n_committed total
        (Dmc_runtime.Run.resume_hint ckpt_path);
    exit_if_interrupted batch;
    let doc = Sweep.doc grid ~results:(Array.to_list results) in
    let doc =
      if not host_health then doc
      else
        let stats =
          List.map
            (fun h ->
              {
                Sweep.h_name = h.Host.name;
                h_remote = Host.is_remote h;
                h_verdict = Host.verdict_to_string h.Host.verdict;
                h_dispatched = h.Host.dispatched;
                h_completed = h.Host.completed;
                h_failures = h.Host.failures_total;
                h_resharded = h.Host.resharded;
                h_quarantines = h.Host.quarantines;
                h_quarantine_log = h.Host.quarantine_log;
              })
            hosts
        in
        {
          doc with
          Dmc_analysis.Doc.blocks =
            doc.Dmc_analysis.Doc.blocks
            @ Sweep.host_health_doc ~run_started stats;
        }
    in
    let ok = Dmc_analysis.Doc.ok doc in
    (match (json, md) with
    | true, _ ->
        let module J = Dmc_util.Json in
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("kind", J.String "dmc-sweep-report");
                  ("v", J.Int 1);
                  ("ok", J.Bool ok);
                  ("report", Dmc_analysis.Doc.to_json doc);
                ]))
    | _, true -> print_string (Dmc_analysis.Doc.to_markdown doc)
    | _ -> print_string (Dmc_analysis.Doc.to_text doc));
    flush stdout;
    emit_obs batch;
    if not ok then exit 1
  in
  let specs =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"SPEC"
           ~doc:(Printf.sprintf
                   "Workload templates; %s.  A template may use {n} and \
                    {seed} placeholders, expanded over --sizes and --seeds \
                    (e.g. 'jacobi1d:{n},4' or 'layered:{seed},5,30')."
                   generator_doc))
  in
  let sizes =
    Arg.(value & opt (some string) None & info [ "sizes" ] ~docv:"LIST"
           ~doc:"Values for the {n} placeholder: comma-separated integers \
                 with inclusive ranges, e.g. '8,12,16..19'.")
  in
  let seeds =
    Arg.(value & opt (some string) None & info [ "seeds" ] ~docv:"LIST"
           ~doc:"Values for the {seed} placeholder (same syntax as --sizes) \
                 — the random-DAG fleet axis.")
  in
  let ss =
    Arg.(value & opt string "8" & info [ "s" ] ~docv:"LIST"
           ~doc:"Fast-memory capacities to sweep (same syntax as --sizes).")
  in
  let ps_axis =
    Arg.(value & opt (some string) None & info [ "p" ] ~docv:"LIST"
           ~doc:"Processor counts to sweep (same syntax as --sizes); \
                 requires a p-sensitive engine in --engines (see dmc \
                 bounds --list-engines).")
  in
  let engines =
    Arg.(value & opt (some string) None & info [ "engines" ] ~docv:"NAMES"
           ~doc:(Printf.sprintf
                   "Comma-separated engine subset (default: all of %s; \
                    multi-processor engines: %s)."
                   (String.concat ", "
                      (List.map fst Dmc_core.Bounds.governed_engines))
                   (String.concat ", " Dmc_core.Mp_bounds.engine_names)))
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one structured JSON report: $(b,{kind, v, ok, \
                 report}), byte-identical across $(b,--jobs) widths, host \
                 fleets and transient-failure schedules.")
  in
  let md_arg =
    Arg.(value & flag & info [ "md" ]
           ~doc:"Render the report as Markdown instead of text.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"PATH"
           ~doc:"Atomically write the committed row prefix after every \
                 commit, so kill -9 of the coordinator resumes with \
                 $(b,--resume) without recomputing committed rows.")
  in
  let resume =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"PATH"
           ~doc:"Resume from a checkpoint written by the same grid (other \
                 grids are refused); also keeps checkpointing to the same \
                 file.  The final report is byte-identical to an \
                 uninterrupted run.")
  in
  let postmortem =
    Arg.(value & opt (some string) None & info [ "postmortem" ] ~docv:"DIR"
           ~doc:"Arm the crash flight recorder: every attempt that ends \
                 crashed, timed-out or protocol-broken dumps the recent \
                 span/dispatch/verdict event ring, counters and gauges to \
                 a timestamped $(b,postmortem-*.json) in $(docv) (created \
                 if needed).  Best-effort — a failed dump warns on stderr \
                 and never perturbs supervision or the report bytes.")
  in
  let host_health =
    Arg.(value & flag & info [ "host-health" ]
           ~doc:"Append a per-host health timeline section to the report: \
                 dispatched/completed/failure/reshard counts, final \
                 verdicts and quarantine intervals relative to run start.  \
                 Off by default because its contents are run-dependent \
                 (wall-clock intervals, host placement) — the flag-less \
                 report keeps the byte-identity contract.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a workload/S/p/engine/seed parameter grid across a \
             fault-tolerant host fleet")
    Term.(const run $ specs $ sizes $ seeds $ ss $ ps_axis $ engines $ json_arg
          $ md_arg $ timeout_arg $ node_budget_arg $ host_arg $ checkpoint
          $ resume $ batch_term $ postmortem $ host_health)

let () =
  let info =
    Cmd.info "dmc" ~version:"1.0.0"
      ~doc:"Data-movement complexity of computational DAGs (Elango et al., SPAA 2014)"
  in
  exit (Cmd.eval (Cmd.group info [ gen_cmd; bounds_cmd; game_cmd; replay_cmd; hier_cmd; horizontal_cmd; witness_cmd; formula_cmd; machines_cmd; bench_diff_cmd; experiment_cmd; serve_cmd; query_cmd; sweep_cmd; worker_cmd ]))
