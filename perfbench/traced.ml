(* The traced run: each workload's operations repeated in-process, with
   the benchmark's own calls into each layer's public functions timed
   and the existing registry counters read around them.  The program
   itself runs unchanged — no --profile, --trace or --progress, which
   would move [dmc bounds] onto another path.

   Timed calls never nest, so their sum never exceeds the pass's wall
   clock; the rest of the pass is reported as [unattributed_s]. *)

module B = Dmc_core.Bounds
module J = Dmc_util.Json
module Registry = Dmc_obs.Registry

type timer = { mutable total : float; mutable calls : int }

type t = {
  timers : (string, timer) Hashtbl.t;
  counts : (string, float) Hashtbl.t;  (** counts and ratios, set directly *)
  mutable engine_ops : int;  (** operations that ran an engine *)
}

let create () = { timers = Hashtbl.create 32; counts = Hashtbl.create 32; engine_ops = 0 }

let time t name f =
  let t0 = Proc.now () in
  let r = f () in
  let d = Proc.now () -. t0 in
  let tm =
    match Hashtbl.find_opt t.timers name with
    | Some tm -> tm
    | None ->
        let tm = { total = 0.; calls = 0 } in
        Hashtbl.replace t.timers name tm;
        tm
  in
  tm.total <- tm.total +. d;
  tm.calls <- tm.calls + 1;
  r

let bump t name v =
  Hashtbl.replace t.counts name (v +. Option.value ~default:0. (Hashtbl.find_opt t.counts name))

let counter name = float_of_int (Dmc_obs.Counter.value (Registry.counter name))
let major_words () = (Gc.quick_stat ()).Gc.major_words

(* [f ()] timed under [layer], with the registry counters in [counted]
   and the major-heap words it allocated added to [layer]'s counts. *)
let measured t layer ?(counted = []) f =
  let before = List.map (fun (c, _) -> counter c) counted in
  let w0 = major_words () in
  let r = time t (layer ^ ".busy_s") f in
  bump t (layer ^ ".major_words") (major_words () -. w0);
  List.iter2 (fun (c, metric) b -> bump t metric (counter c -. b)) counted before;
  r

let flow_counters =
  [ ("wavefront.mincut_calls", "flow.mincut_calls"); ("dinic.augmenting_paths", "flow.augmenting_paths") ]

let parse t spec = time t "gen" (fun () -> Dmc_gen.Workload.parse_exn spec)

(* Pool calls run as the CLI runs them, with observation off: a worker
   forked from a recording registry would ship its spans back and
   measure the tracing, not the dispatch. *)
let untraced f =
  Registry.set_enabled false;
  Fun.protect ~finally:(fun () -> Registry.set_enabled true) f

(* Mirrors [Bounds.analyze]: the same engines behind the same size
   gates, each timed on its own, then the report rendered as the CLI
   prints it. *)
let analyze t ~optimal spec s =
  let g = parse t spec in
  let module C = Dmc_cdag.Cdag in
  let floor = B.io_floor g in
  let wavefront_lb =
    measured t "core.wavefront" ~counted:flow_counters (fun () ->
        Dmc_core.Wavefront.lower_bound g ~s)
  in
  let gated cond f =
    if not cond then None
    else
      time t "core.partition.busy_s" (fun () ->
          match f () with v -> Some v | exception Dmc_core.Optimal.Too_large _ -> None)
  in
  let partition_lb =
    gated (C.n_compute g <= 9) (fun () -> Dmc_core.Spartition.lower_bound_exact g ~s)
  in
  let partition_u_lb =
    gated
      (C.n_compute g <= 22 && C.n_vertices g <= 62)
      (fun () -> Dmc_core.Spartition.lower_bound_u g ~s)
  in
  let span_lb = gated (C.n_vertices g <= 16) (fun () -> Dmc_core.Span.lower_bound g ~s) in
  let optimal_io =
    if optimal && C.n_vertices g <= 20 then begin
      bump t "optimal.attempted" 1.;
      measured t "core.optimal"
        ~counted:[ ("optimal.states_expanded", "core.optimal.states") ]
        (fun () ->
          match Dmc_core.Optimal.rbw_io g ~s with
          | io ->
              bump t "optimal.solved" 1.;
              Some io
          | exception Dmc_core.Optimal.Too_large _ -> None)
    end
    else None
  in
  let belady_ub, lru_ub, trivial_ub =
    time t "core.strategy.busy_s" (fun () ->
        ( Dmc_core.Strategy.io ~policy:Dmc_core.Strategy.Belady g ~s,
          Dmc_core.Strategy.io ~policy:Dmc_core.Strategy.Lru g ~s,
          Dmc_core.Strategy.trivial_io g ))
  in
  let candidates =
    floor :: wavefront_lb :: List.filter_map Fun.id [ partition_lb; partition_u_lb; span_lb ]
  in
  let report =
    {
      B.s;
      n_vertices = C.n_vertices g;
      n_edges = C.n_edges g;
      io_floor = floor;
      wavefront_lb;
      partition_lb;
      partition_u_lb;
      span_lb;
      best_lb = List.fold_left max 0 candidates;
      belady_ub;
      lru_ub;
      trivial_ub;
      optimal_io;
    }
  in
  time t "analysis.render_s" (fun () -> Format.asprintf "%a@." B.pp_report report)

let experiment t name =
  match Dmc_analysis.Report.find name with
  | None -> failwith ("unknown experiment " ^ name)
  | Some e ->
      (* the experiment's parts are wavefront-bound computations *)
      let payloads =
        List.map
          (fun (p : Dmc_analysis.Experiment.part) ->
            measured t "core.wavefront" ~counted:flow_counters p.run)
          e.Dmc_analysis.Experiment.parts
      in
      time t "analysis.render_s" (fun () ->
          Dmc_analysis.Doc.to_text (e.Dmc_analysis.Experiment.doc_of_parts payloads))

let governed t spec s ~budget ~jobs =
  let g = parse t spec in
  let rows =
    List.map
      (fun (engine, _) ->
        let mincut0 = counter "wavefront.mincut_calls" in
        let ticks0 = counter "budget.ticks" in
        let row =
          time t "core.bounds.busy_s" (fun () ->
              B.governed_row ~node_budget:budget g ~s engine)
        in
        let rungs = 1 + List.length row.B.attempts in
        bump t "core.bounds.rungs" (float_of_int rungs);
        if row.B.value <> None then bump t "core.bounds.rungs_ok" 1.;
        if row.B.attempts <> [] then bump t "core.bounds.wasted_s" row.B.elapsed;
        bump t "core.bounds.budget_ticks" (counter "budget.ticks" -. ticks0);
        if counter "wavefront.mincut_calls" > mincut0 then
          bump t "core.wavefront.derivations" 1.;
        row)
      B.governed_engines
  in
  bump t "governed.specs" 1.;
  ignore
    (time t "analysis.render_s" (fun () ->
         J.to_string (B.governed_to_json (B.assemble_governed g ~s rows))));
  (* the same rows through the worker pool, as [dmc bounds --jobs] runs
     them; what a job spends outside its engine ladder is dispatch *)
  let module Pool = Dmc_runtime.Pool in
  let engine_jobs =
    List.map
      (fun (engine, _) -> Dmc_core.Engine_job.make ~node_budget:budget g ~s ~engine)
      B.governed_engines
  in
  let outcomes =
    time t "runtime.pool.busy_s" (fun () ->
        untraced @@ fun () ->
        Pool.run { Pool.default with jobs } ~worker:(fun _ j -> Dmc_core.Engine_job.run j)
          engine_jobs)
  in
  Array.iter
    (fun (o : Pool.outcome) ->
      let in_engine =
        match o.Pool.verdict with
        | Pool.Done row -> Option.value ~default:0. (Option.bind (J.mem row "elapsed_s") J.as_float)
        | _ -> 0.
      in
      bump t "runtime.pool.dispatch_s" (o.Pool.elapsed -. in_engine);
      bump t "runtime.pool.jobs" 1.;
      bump t "runtime.pool.retries" (float_of_int (o.Pool.attempts - 1)))
    outcomes

let op t (op : Cases.op) =
  t.engine_ops <- t.engine_ops + 1;
  match op.mode with
  | Cases.Analyze { optimal } -> ignore (analyze t ~optimal op.spec op.s)
  | Cases.Symbolic ->
      ignore
        (time t "core.symbolic.busy_s" (fun () ->
             Dmc_core.Symbolic_bounds.bound ~spec:op.spec ~s:op.s ()))
  | Cases.Stream ->
      let imp = time t "gen" (fun () -> Dmc_gen.Workload.parse_implicit op.spec) in
      ignore
        (time t "core.streaming.busy_s" (fun () ->
             Dmc_core.Streaming.wavefront_sum (Result.get_ok imp) ~s:op.s))
  | Cases.Experiment name -> ignore (experiment t name)
  | Cases.Governed { budget; jobs } -> governed t op.spec op.s ~budget ~jobs

(* The serve path in-process: the daemon's hit path (key, lookup) and
   miss path (graph rebuild, engine ladder, persisted insert) over the
   burst's request sequence, plus the pool's fork-and-IPC round trip
   for one no-op job. *)
let serve t ~cache_dir (seq : Cases.query array) =
  let cache = Dmc_serve.Result_cache.create ~dir:cache_dir ~capacity:1024 () in
  let hits = ref 0 in
  Array.iter
    (fun (q : Cases.query) ->
      let key =
        time t "serve.cache_key" (fun () ->
            Dmc_serve.Cache_key.of_spec ~engine:q.q_engine ~s:q.q_s ~timeout:None
              ~node_budget:None ~samples:64 q.q_spec)
      in
      match time t "serve.find" (fun () -> Dmc_serve.Result_cache.find cache key) with
      | Some _ -> incr hits
      | None ->
          t.engine_ops <- t.engine_ops + 1;
          let g = parse t q.q_spec in
          let row =
            time t "core.bounds.busy_s" (fun () ->
                Dmc_core.Engine_job.run (Dmc_core.Engine_job.make g ~s:q.q_s ~engine:q.q_engine))
          in
          let row = match row with Ok r -> r | Error _ -> J.Null in
          time t "serve.add" (fun () -> Dmc_serve.Result_cache.add cache key row))
    seq;
  bump t "serve.hit_ratio" (float_of_int !hits /. float_of_int (Array.length seq));
  let module Pool = Dmc_runtime.Pool in
  for _ = 1 to 20 do
    ignore
      (time t "runtime.pool.roundtrip" (fun () ->
           untraced @@ fun () ->
           Pool.run Pool.default ~worker:(fun _ () -> Ok J.Null) [ () ]))
  done

let core_layers =
  [ "core.optimal"; "core.wavefront"; "core.partition"; "core.strategy"; "core.symbolic";
    "core.streaming"; "core.bounds" ]

(* The per-layer metrics of one pass, [wall] being the pass's own wall
   clock: (name, value, unit), each present only when the pass reached
   its layer. *)
let metrics t ~wall =
  let out = ref [] in
  let add name v u = out := (name, v, u) :: !out in
  let timer name = Hashtbl.find_opt t.timers name in
  let per_call name metric scale u =
    Option.iter (fun tm -> add metric (tm.total /. float_of_int tm.calls *. scale) u) (timer name)
  in
  let count name = Hashtbl.find_opt t.counts name in
  Option.iter (fun tm -> add "gen.build_s" tm.total "s") (timer "gen");
  per_call "gen" "gen.rebuild_ms" 1e3 "ms";
  List.iter
    (fun layer ->
      Option.iter (fun tm -> add (layer ^ ".busy_s") tm.total "s") (timer (layer ^ ".busy_s")))
    core_layers;
  let core_total =
    List.fold_left
      (fun acc l -> acc +. Option.fold ~none:0. ~some:(fun tm -> tm.total) (timer (l ^ ".busy_s")))
      0. core_layers
  in
  if t.engine_ops > 0 && core_total > 0. then
    add "core.engine_ms" (core_total /. float_of_int t.engine_ops *. 1e3) "ms";
  Option.iter (fun tm -> add "analysis.render_s" tm.total "s") (timer "analysis.render_s");
  Option.iter (fun tm -> add "runtime.pool.busy_s" tm.total "s") (timer "runtime.pool.busy_s");
  per_call "runtime.pool.roundtrip" "runtime.pool.roundtrip_ms" 1e3 "ms";
  per_call "serve.cache_key" "serve.cache_key_us" 1e6 "us";
  per_call "serve.find" "serve.find_us" 1e6 "us";
  per_call "serve.add" "serve.add_ms" 1e3 "ms";
  List.iter
    (fun (name, u) -> Option.iter (fun v -> add name v u) (count name))
    [
      ("core.optimal.states", "count"); ("core.optimal.major_words", "count");
      ("core.wavefront.major_words", "count"); ("flow.mincut_calls", "count");
      ("flow.augmenting_paths", "count"); ("core.bounds.rungs", "count");
      ("core.bounds.rungs_ok", "count"); ("core.bounds.wasted_s", "s");
      ("core.bounds.budget_ticks", "count"); ("runtime.pool.dispatch_s", "s");
      ("runtime.pool.jobs", "count"); ("runtime.pool.retries", "count");
      ("serve.hit_ratio", "ratio");
    ];
  (match (count "optimal.solved", count "optimal.attempted") with
  | solved, Some attempted ->
      add "core.optimal.solved_ratio" (Option.value ~default:0. solved /. attempted) "ratio"
  | _, None -> ());
  (match (count "core.bounds.rungs_ok", count "core.bounds.rungs") with
  | Some ok, Some rungs -> add "core.bounds.useful_ratio" (ok /. rungs) "ratio"
  | _ -> ());
  (match (count "core.wavefront.derivations", count "governed.specs") with
  | Some d, Some specs -> add "core.wavefront.derivations" (d /. specs) "count"
  | None, Some _ -> add "core.wavefront.derivations" 0. "count"
  | _ -> ());
  let timed = Hashtbl.fold (fun _ tm acc -> acc +. tm.total) t.timers 0. in
  add "unattributed_s" (wall -. timed) "s";
  List.rev !out
