(* The dmc benchmark runner.

     bench --workload NAME --seed N --seconds S --trace 0|1
     bench --record            (rewrite perfbench/expected.json)

   Run from the root of a built source tree (perfbench/run.sh builds
   it).  With --trace 0 the workload runs through the real binary as
   child processes and the end-to-end metrics are printed; with
   --trace 1 its operations are repeated in-process and the per-layer
   metrics are printed.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  A human-readable
   report goes to stderr.  The exit code is 1 when any output check
   failed, 2 on a usage or environment error. *)

module J = Dmc_util.Json
module P = Dmc_serve.Protocol

let dmc = "_build/default/bin/dmc.exe"
let run_dir = ".bench_run"
let err_log = Filename.concat run_dir "child.err"
let out_log = Filename.concat run_dir "child.out"

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let usage_error msg =
  prerr_endline ("bench: " ^ msg);
  exit 2

(* --- results ------------------------------------------------------ *)

type metric = string * float * string * int  (* name, value, unit, samples *)

let emit ~tally (metrics : metric list) =
  let correct = tally.Perfbench.Stats.failed = 0 in
  log "attempted %d, failed %d (failed_frac %.4f)" tally.attempted tally.failed
    (Perfbench.Stats.failed_frac tally);
  List.iter (log "  failure: %s") (List.rev tally.reasons);
  List.iter (fun (n, v, u, k) -> log "  %-30s %14.6f %-6s (%d samples)" n v u k) metrics;
  print_endline
    (J.to_string ~indent:false
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int tally.attempted);
            ("failed", J.Int tally.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v, u, _) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)

let median = Perfbench.Stats.median
let record = Perfbench.Stats.record

(* --- set-up time ---------------------------------------------------- *)

(* Spawn-to-exit of the cheapest full-binary command: everything the
   binary does before it can work (loading, module initialisation).
   One unmeasured spawn first, so the page cache is warm.  Durations
   are reference-normalized (see Calib). *)
let setup_samples = 21

let batch_setup tally =
  let spawn () = Proc.run ~out:out_log ~err:err_log [| dmc; "machines" |] in
  ignore (spawn ());
  let walls =
    List.init setup_samples (fun _ ->
        let f = Calib.current () in
        let r = spawn () in
        record tally
          (if r.Proc.usage.code = 0 && r.out <> "" then Ok ()
           else Error "dmc machines failed");
        r.wall *. f)
  in
  median walls

(* --- batch workloads through the binary ---------------------------- *)

(* In-process expectations for seeded specs without a committed output:
   the CLI's own ungoverned report, and the --jobs 1 governed table. *)
let reference (op : Cases.op) =
  if not op.seeded then None
  else
    let g = Dmc_gen.Workload.parse_exn op.spec in
    match op.mode with
    | Cases.Analyze { optimal } ->
        Some
          (Format.asprintf "%a@." Dmc_core.Bounds.pp_report
             (Dmc_core.Bounds.analyze ~optimal_limit:(if optimal then 20 else 0) g ~s:op.s))
    | Cases.Governed { budget; _ } ->
        Result.to_option
          (Check.governed_table
             (Dmc_core.Bounds.governed_to_json
                (Dmc_core.Bounds.analyze_governed ~node_budget:budget g ~s:op.s)))
    | _ -> None

(* Passes over the operation list until another pass would overrun
   [seconds]; at least one.  Per-operation medians over the passes make
   the figures robust to one slow pass on a shared machine.

   When every operation is a single process, the benchmark and its
   children are pinned to one CPU first: the two vCPUs of the bench VM
   slow down independently, and the reference block only tracks the
   core it runs on.  Pooled operations (--jobs 2) stay unpinned. *)
let single_process (op : Cases.op) =
  match op.mode with Cases.Governed _ -> false | _ -> true

let batch ~seconds ops tally =
  if List.for_all single_process ops then begin
    let cpu = Proc.pin_first_cpu () in
    if cpu >= 0 then log "pinned to CPU %d" cpu
  end;
  let expected = Check.load_expected () in
  let refs = Hashtbl.create 4 in
  List.iter (fun op -> Hashtbl.replace refs (Cases.key op) (reference op)) ops;
  let reference op = Option.join (Hashtbl.find_opt refs (Cases.key op)) in
  let cpu0 = Proc.children_cpu () in
  let setup_s = batch_setup tally in
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let walls = Array.make n [] and cpus = Array.make n [] and rss = Array.make n [] in
  let raw = Array.make n [] in
  let t_start = Proc.now () in
  (* each operation is bracketed by reference blocks and normalized by
     their mean *)
  let r_before = ref (Calib.measure ()) in
  let rec pass k =
    let t0 = Proc.now () in
    Array.iteri
      (fun i (op : Cases.op) ->
        let r = Proc.run ~out:out_log ~err:err_log (Array.of_list (dmc :: Cases.argv op)) in
        let r_after = Calib.measure () in
        let f = Calib.nominal /. ((!r_before +. r_after) /. 2.) in
        r_before := r_after;
        let outcome = Check.op_output ~expected ~reference op ~code:r.usage.code r.out in
        record tally outcome;
        raw.(i) <- r.wall :: raw.(i);
        walls.(i) <- (r.wall *. f) :: walls.(i);
        cpus.(i) <- ((r.usage.user +. r.usage.sys) *. f) :: cpus.(i);
        rss.(i) <- float_of_int r.usage.maxrss_kib :: rss.(i))
      ops;
    let took = Proc.now () -. t0 in
    if Proc.now () -. t_start +. took <= seconds then pass (k + 1) else k
  in
  let passes = pass 1 in
  record tally (Proc.cross_check ~since:cpu0);
  log "%d passes over %d operations; median normalized (raw) wall per operation:" passes n;
  Array.iteri
    (fun i op ->
      log "  %8.3f s (%8.3f s)  %s" (median walls.(i)) (median raw.(i))
        (String.concat " " (Cases.argv op)))
    ops;
  let sum_medians a = Array.fold_left (fun acc w -> acc +. median w) 0. a in
  let wall = sum_medians walls in
  log "raw wall per pass %.3f s" (sum_medians raw);
  let peak = Array.fold_left (fun m r -> Float.max m (median r)) 0. rss in
  [
    ("wall_s", wall, "s", passes);
    ("cpu_s", sum_medians cpus, "s", passes);
    ("peak_rss_mb", peak /. 1024., "MB", passes);
    ("setup_s", setup_s, "s", setup_samples);
    ("ops_per_s", float_of_int n /. wall, "1/s", passes);
    ("op_p50_ms", 1e3 *. median (Array.to_list (Array.map median walls)), "ms", n);
  ]

(* --- serve-burst ---------------------------------------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  remove_tree path;
  Unix.mkdir path 0o755

let strip_elapsed = function
  | J.Obj kvs -> J.Obj (List.filter (fun (k, _) -> k <> "elapsed_s") kvs)
  | j -> j

(* Children still alive after the daemon exited, other than the
   spawner, were its workers, re-parented to this process (a
   sub-reaper): kill and reap them. *)
let leftover_children () =
  let path = Printf.sprintf "/proc/self/task/%d/children" (Unix.getpid ()) in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
      String.split_on_char ' ' (String.trim text) |> List.filter_map int_of_string_opt
      |> List.filter (fun pid -> Some pid <> Proc.spawner_pid ())
      |> List.map (fun pid ->
             (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
             ignore (Proc.reap pid);
             pid)

let query_request (q : Cases.query) = P.query (P.Spec q.q_spec) ~engine:q.q_engine ~s:q.q_s

(* One daemon lifetime: a fresh empty cache directory, readiness by
   Ping (the set-up time), [traffic socket], a Metrics snapshot, then
   Shutdown — the daemon must exit 0 on its own and leave no worker
   behind. *)
let with_daemon ~name tally traffic =
  let dir = Filename.concat run_dir name in
  fresh_dir dir;
  let cache = Filename.concat dir "cache" in
  Unix.mkdir cache 0o755;
  let socket = Filename.concat dir "d.sock" in
  let t0 = Proc.now () in
  let pid =
    Proc.spawn ~out:(Filename.concat dir "daemon.out") ~err:(Filename.concat dir "daemon.err")
      [| dmc; "serve"; "--socket"; socket; "--jobs"; "2"; "--cache-dir"; cache |]
  in
  let ready = Serve_client.await_ready ~deadline:(t0 +. 30.) socket in
  record tally (Result.map ignore ready);
  let setup = match ready with Ok t -> t -. t0 | Error _ -> Proc.now () -. t0 in
  let result = traffic socket in
  let metrics =
    match Serve_client.request socket P.Metrics with
    | Ok (P.Metrics_snapshot j) -> record tally (Ok ()); Some j
    | _ -> record tally (Error "no Metrics reply"); None
  in
  record tally
    (match Serve_client.request socket P.Shutdown with
    | Ok P.Bye -> Ok ()
    | _ -> Error "no Bye reply to Shutdown");
  let usage, killed = Proc.reap_within ~grace:20. pid in
  record tally
    (if killed then Error "daemon did not exit after Shutdown"
     else if usage.code <> 0 then Error (Printf.sprintf "daemon exited %d" usage.code)
     else Ok ());
  record tally
    (match leftover_children () with
    | [] -> Ok ()
    | pids -> Error (Printf.sprintf "%d workers outlived the daemon" (List.length pids)));
  (setup, result, metrics, usage)

type burst = {
  b_factor : float;  (** the reference normalization applied (see Calib) *)
  b_setup : float;
  b_wall : float;
  b_cpu : float;
  b_rss : int;
  b_answers : (Cases.query * Serve_client.answer) array;  (** in reply order *)
  b_metrics : J.t option;
}

(* Two clients, one request outstanding each: the first fills the
   cache cold, asking every key once in the seed's order, each request
   sent as soon as the last is answered; the second re-asks a key
   already answered, drawn by the seed, once every [hit_interval]
   seconds until the fill is done.  The burst is the fill. *)
let hit_interval = 0.00025

let burst ~index ~seed tally =
  let cold = Cases.serve_cold_order seed in
  let rng = Cases.serve_hit_rng seed in
  let answered = Array.make (Array.length cold) cold.(0) in
  let n_answered = ref 0 and sent = ref 0 and filled = ref 0 in
  let answers = ref [] in
  let due = ref 0. in
  let next = function
    | 0 when !sent < Array.length cold ->
        let q = cold.(!sent) in
        incr sent;
        Serve_client.Send (q, query_request q)
    | 0 -> Serve_client.Done
    | _ when !filled = Array.length cold -> Serve_client.Done
    | _ when !n_answered = 0 || Proc.now () < !due -> Serve_client.Later
    | _ ->
        due := Float.max (!due +. hit_interval) (Proc.now ());
        let q = answered.(Dmc_util.Rng.int rng !n_answered) in
        Serve_client.Send (q, query_request q)
  in
  let on_answer lane q (a : Serve_client.answer) =
    answers := (q, a) :: !answers;
    if lane = 0 then begin
      incr filled;
      match a.reply with
      | Ok (P.Result _) ->
          answered.(!n_answered) <- q;
          incr n_answered
      | _ -> ()
    end
  in
  let r_before = Calib.measure () in
  let setup, wall, metrics, usage =
    with_daemon ~name:(Printf.sprintf "serve-%d" index) tally (fun socket ->
        let tb = Proc.now () in
        Serve_client.lanes ~socket ~count:2 ~next ~on_answer;
        Proc.now () -. tb)
  in
  (* normalized by the reference blocks bracketing the lifetime *)
  let f = Calib.nominal /. ((r_before +. Calib.measure ()) /. 2.) in
  {
    b_factor = f;
    b_setup = setup *. f;
    b_wall = wall *. f;
    b_cpu = (usage.user +. usage.sys) *. f;
    b_rss = usage.maxrss_kib;
    b_answers =
      Array.of_list
        (List.rev_map
           (fun (q, (a : Serve_client.answer)) -> (q, { a with latency = a.latency *. f }))
           !answers);
    b_metrics = metrics;
  }

(* A lone client's cold misses, one at a time on a fresh daemon: the
   latency a single [dmc query] user sees.  Mean, in raw ms: a miss
   either completes in a few ms or waits out the daemon's 0.2 s select
   timeout, and the mean shows how often it waits. *)
let lone_misses ~count tally =
  let keys = List.filteri (fun i _ -> i < count) Cases.universe in
  let _, lat, _, _ =
    with_daemon ~name:"lone" tally (fun socket ->
        List.map
          (fun q ->
            let t0 = Proc.now () in
            let reply = Serve_client.request socket (query_request q) in
            record tally
              (match reply with
              | Ok (P.Result { cached = false; _ }) -> Ok ()
              | _ -> Error ("lone miss failed: " ^ Printf.sprintf "%s -S %d" q.Cases.q_spec q.q_s));
            (Proc.now () -. t0) *. 1e3)
          keys)
  in
  List.fold_left ( +. ) 0. lat /. float_of_int (List.length lat)

let query_key (q : Cases.query) = Printf.sprintf "%s -S %d %s" q.q_spec q.q_s q.q_engine

(* Every reply must be a Result; a hit must repeat byte for byte a row
   its key's miss produced in the same burst (two concurrent misses of
   one key both compute, and either may be the one cached); and rows of
   one key agree across bursts up to their elapsed time. *)
let check_answers ~rows b tally =
  let misses = Hashtbl.create 256 in
  Array.iter
    (fun ((q : Cases.query), (a : Serve_client.answer)) ->
      match a.reply with
      | Ok (P.Result { row; cached = false }) -> Hashtbl.add misses (query_key q) row
      | _ -> ())
    b.b_answers;
  Array.iter
    (fun ((q : Cases.query), (a : Serve_client.answer)) ->
      let k = query_key q in
      record tally
        (match a.reply with
        | Ok (P.Result { row; cached }) -> (
            if cached && not (List.mem row (Hashtbl.find_all misses k)) then
              Error ("hit row is not its key's miss row: " ^ k)
            else
              match Hashtbl.find_opt rows k with
              | None ->
                  Hashtbl.replace rows k (strip_elapsed row);
                  Ok ()
              | Some r when r <> strip_elapsed row -> Error ("rows differ between misses: " ^ k)
              | Some _ -> Ok ())
        | Ok _ -> Error ("non-Result reply for " ^ k)
        | Error m -> Error (Printf.sprintf "%s: %s" k m)))
    b.b_answers

let check_rows ~rows tally =
  List.iter
    (fun (q : Cases.query) ->
      match Hashtbl.find_opt rows (query_key q) with
      | None -> ()
      | Some row ->
          let g = Dmc_gen.Workload.parse_exn q.q_spec in
          let ref_row = Dmc_core.Engine_job.run (Dmc_core.Engine_job.make g ~s:q.q_s ~engine:q.q_engine) in
          record tally
            (match ref_row with
            | Ok r when strip_elapsed r = row -> Ok ()
            | _ -> Error ("served row differs from the in-process ladder: " ^ query_key q)))
    Cases.universe

let latencies b pick =
  Array.to_list b.b_answers
  |> List.filter_map (fun (_, (a : Serve_client.answer)) ->
         match a.reply with
         | Ok (P.Result { cached; _ }) when pick cached -> Some (a.latency *. 1e3)
         | _ -> None)

let report_latency label xs =
  match Perfbench.Stats.tail_percentile (List.length xs) with
  | None -> log "  %-6s %5d samples: too few for a percentile" label (List.length xs)
  | Some p ->
      log "  %-6s %5d samples: p50 %.3f ms, p%g %.3f ms" label (List.length xs) (median xs) p
        (Perfbench.Stats.percentile xs p)

(* The daemon's own log2-bucket latency quantiles: coarse (a bucket
   midpoint, up to 2x off), so they are only logged. *)
let log_daemon_quantiles = function
  | None -> ()
  | Some j ->
      let hists = Option.bind (J.mem j "registry") (fun r -> J.mem r "hists") in
      List.iter
        (fun h ->
          match Option.bind hists (fun hs -> J.mem hs h) with
          | None -> ()
          | Some v ->
              let q p = Option.value ~default:nan (Option.bind (J.mem v p) J.as_float) in
              log "  daemon %-26s p50 %.0f  p90 %.0f  p99 %.0f (coarse)" h (q "p50") (q "p90") (q "p99"))
        [ "serve.lat.queue_wait_us"; "serve.lat.engine_us"; "serve.lat.cache_lookup_us" ]

let rejects = function
  | None -> 0
  | Some j -> (
      match Option.bind (J.mem j "registry") (fun r -> J.mem r "counters") with
      | Some (J.Obj cs) ->
          List.fold_left
            (fun acc (k, v) ->
              if String.length k > 13 && String.sub k 0 13 = "serve.reject."
              then acc + Option.value ~default:0 (J.as_int v)
              else acc)
            0 cs
      | _ -> 0)

let serve_burst ~seconds ~seed tally =
  let rows = Hashtbl.create 256 in
  let cpu0 = Proc.children_cpu () in
  let t_start = Proc.now () in
  let rec go i acc =
    let t0 = Proc.now () in
    let b = burst ~index:i ~seed tally in
    check_answers ~rows b tally;
    let took = Proc.now () -. t0 in
    if Proc.now () -. t_start +. took <= seconds then go (i + 1) (b :: acc) else b :: acc
  in
  let bursts = List.rev (go 0 []) in
  record tally (Proc.cross_check ~since:cpu0);
  check_rows ~rows tally;
  let all = { (List.hd bursts) with b_answers = Array.concat (List.map (fun b -> b.b_answers) bursts) } in
  let nb = List.length bursts in
  let queries = latencies all (fun _ -> true) in
  log "%d bursts: %d keys filled cold while a second client re-asks answered ones" nb
    (List.length Cases.universe);
  log "burst wall: %.3f s normalized, %.3f s raw (medians)"
    (median (List.map (fun b -> b.b_wall) bursts))
    (median (List.map (fun b -> b.b_wall /. b.b_factor) bursts));
  log "normalized latencies:";
  report_latency "query" queries;
  report_latency "hit" (latencies all Fun.id);
  report_latency "miss" (latencies all not);
  log_daemon_quantiles (List.nth bursts (nb - 1)).b_metrics;
  log "daemon peak RSS per burst (MB): %s"
    (String.concat " " (List.map (fun b -> Printf.sprintf "%.1f" (float_of_int b.b_rss /. 1024.)) bursts));
  let wall = median (List.map (fun b -> b.b_wall) bursts) in
  [
    ("wall_s", wall, "s", nb);
    ("cpu_s", median (List.map (fun b -> b.b_cpu) bursts), "s", nb);
    ("peak_rss_mb", median (List.map (fun b -> float_of_int b.b_rss) bursts) /. 1024., "MB", nb);
    ("setup_s", median (List.map (fun b -> b.b_setup) bursts), "s", nb);
    ("ops_per_s", float_of_int (List.length Cases.universe) /. wall, "1/s", nb);
    ("op_p50_ms", median queries, "ms", List.length queries);
  ]

(* --- traced runs ---------------------------------------------------- *)

(* One in-process pass over the workload's operations; for serve-burst,
   over the queries of the traced daemon burst, in reply order. *)
let trace_pass ~workload ~seed ~serve_seq ~index tally =
  let t = Traced.create () in
  let t0 = Proc.now () in
  (match Cases.batch_ops workload seed with
  | Some ops -> List.iter (Traced.op t) ops
  | None ->
      let dir = Filename.concat run_dir (Printf.sprintf "trace-cache-%d" index) in
      remove_tree dir;
      Traced.serve t ~cache_dir:dir serve_seq);
  let metrics = Traced.metrics t ~wall:(Proc.now () -. t0) in
  record tally (Ok ());
  metrics

(* A layer the workload's own operations do not reach is measured on a
   fixed tiny input of each workload family instead, so every per-layer
   metric is present on every workload; such values are floors, not
   workload signal (the README lists which they are). *)
let probe () =
  let t = Traced.create () in
  let t0 = Proc.now () in
  List.iter (Traced.op t)
    [
      { Cases.mode = Cases.Analyze { optimal = true }; spec = "diamond:3,3"; s = 3; seeded = false };
      { mode = Cases.Analyze { optimal = false }; spec = "jacobi1d:16,4"; s = 4; seeded = false };
      { mode = Cases.Symbolic; spec = "jacobi1d:100000"; s = 16; seeded = false };
      { mode = Cases.Stream; spec = "jacobi1d:500,4"; s = 16; seeded = false };
      { mode = Cases.Governed { budget = Cases.gov_budget; jobs = 2 }; spec = "fft:3"; s = 8; seeded = false };
    ];
  let dir = Filename.concat run_dir "probe-cache" in
  remove_tree dir;
  let keys = Array.sub (Array.of_list Cases.universe) 0 3 in
  Traced.serve t ~cache_dir:dir (Array.append keys keys);
  Traced.metrics t ~wall:(Proc.now () -. t0)

let per_layer =
  [
    "gen.build_s"; "gen.rebuild_ms"; "core.optimal.busy_s"; "core.optimal.states";
    "core.optimal.major_words"; "core.optimal.solved_ratio"; "core.wavefront.busy_s";
    "core.wavefront.major_words"; "flow.mincut_calls"; "flow.augmenting_paths";
    "core.partition.busy_s"; "core.strategy.busy_s"; "core.symbolic.busy_s";
    "core.streaming.busy_s"; "analysis.render_s"; "core.bounds.busy_s"; "core.bounds.rungs";
    "core.bounds.rungs_ok"; "core.bounds.useful_ratio"; "core.bounds.wasted_s";
    "core.bounds.budget_ticks"; "core.wavefront.derivations"; "core.engine_ms";
    "runtime.pool.busy_s"; "runtime.pool.dispatch_s"; "runtime.pool.jobs";
    "runtime.pool.retries"; "runtime.pool.roundtrip_ms"; "serve.cache_key_us"; "serve.find_us";
    "serve.add_ms"; "serve.hit_ratio"; "serve.rejects"; "serve.lone_miss_ms"; "unattributed_s";
  ]

let lone_miss_count = 12

let traced ~workload ~seconds ~seed tally =
  Dmc_obs.Registry.set_enabled true;
  (* the daemon-side view, and the sequence the in-process passes replay *)
  let serve_rejects, serve_seq =
    if Cases.batch_ops workload seed <> None then (0, [||])
    else begin
      let b = burst ~index:0 ~seed tally in
      check_answers ~rows:(Hashtbl.create 256) b tally;
      log_daemon_quantiles b.b_metrics;
      (rejects b.b_metrics, Array.map fst b.b_answers)
    end
  in
  let t_start = Proc.now () in
  let rec go i acc =
    let t0 = Proc.now () in
    let m = trace_pass ~workload ~seed ~serve_seq ~index:i tally in
    let took = Proc.now () -. t0 in
    if Proc.now () -. t_start +. took <= seconds then go (i + 1) (m :: acc) else m :: acc
  in
  let passes = go 0 [] in
  let np = List.length passes in
  log "%d traced passes" np;
  let probed = probe () in
  let lone = lone_misses ~count:lone_miss_count tally in
  let value name =
    let of_pass m = List.find_map (fun (n, v, u) -> if n = name then Some (v, u) else None) m in
    match List.filter_map of_pass passes with
    | (_, u) :: _ as vs -> Some (median (List.map fst vs), u)
    | [] -> None
  in
  List.map
    (fun name ->
      if name = "serve.rejects" then (name, float_of_int serve_rejects, "count", 1)
      else if name = "serve.lone_miss_ms" then (name, lone, "ms", lone_miss_count)
      else
        match value name with
        | Some (v, u) -> (name, v, u, np)
        | None -> (
            match List.find_opt (fun (n, _, _) -> n = name) probed with
            | Some (n, v, u) ->
                log "  (probe) %s" n;
                (n, v, u, 1)
            | None -> failwith ("per-layer metric never measured: " ^ name)))
    per_layer

(* --- record mode ---------------------------------------------------- *)

(* Rewrite expected.json from the binary: every op of every batch
   workload at the default seed, governed tables at --jobs 1. *)
let record_expected () =
  let seed = Check.default_seed in
  let ops =
    Cases.ground_truth seed @ Cases.bounds_mix seed @ Cases.governed ~jobs:1 seed
  in
  let entries =
    List.map
      (fun op ->
        let r = Proc.run ~out:out_log ~err:err_log (Array.of_list (dmc :: Cases.argv op)) in
        if r.usage.code <> 0 then failwith ("failed: " ^ Cases.key op);
        match Check.normalize op r.out with
        | Ok text -> (Cases.key op, J.String text)
        | Error m -> failwith m)
      ops
  in
  Out_channel.with_open_bin Check.expected_path (fun oc ->
      output_string oc (J.to_string (J.Obj entries));
      output_char oc '\n');
  log "wrote %d entries to %s" (List.length entries) Check.expected_path

(* --- command line --------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref Check.default_seed and seconds = ref 20. in
  let trace = ref 0 and record_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Cases.workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--record", Arg.Set record_mode, " rewrite perfbench/expected.json");
    ]
    (fun a -> usage_error ("unexpected argument " ^ a))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists dmc && Sys.file_exists Proc.spawner_exe) then
    usage_error (dmc ^ " or " ^ Proc.spawner_exe ^ " not found: build the tree first");
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  ignore (Proc.set_subreaper ());
  if !record_mode then (record_expected (); exit 0);
  if not (List.mem !workload Cases.workloads) then
    usage_error ("--workload must be one of " ^ String.concat ", " Cases.workloads);
  if !trace <> 0 && !trace <> 1 then usage_error "--trace must be 0 or 1";
  let tally = Perfbench.Stats.tally () in
  let metrics =
    if !trace = 1 then traced ~workload:!workload ~seconds:!seconds ~seed:!seed tally
    else
      match Cases.batch_ops !workload !seed with
      | Some ops -> batch ~seconds:!seconds ops tally
      | None -> serve_burst ~seconds:!seconds ~seed:!seed tally
  in
  emit ~tally metrics
