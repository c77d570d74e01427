(* Tests for the resource-governance layer: Budget guards, the
   result-typed engine API, the graceful-degradation ladder, and the
   checkpoint/RNG-state plumbing the resumable drivers build on. *)

module Budget = Dmc_util.Budget
module Rng = Dmc_util.Rng
module Json = Dmc_util.Json
module Checkpoint = Dmc_util.Checkpoint
module Cdag = Dmc_cdag.Cdag
module Bounds = Dmc_core.Bounds
module Optimal = Dmc_core.Optimal
module Wavefront = Dmc_core.Wavefront

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Budget guard mechanics                                              *)

let test_node_budget () =
  let b = Budget.create ~nodes:10 () in
  for _ = 1 to 9 do
    Budget.tick b
  done;
  check "nine ticks spent" 9 (Budget.spent b);
  (match Budget.tick b with
  | () -> Alcotest.fail "10th tick should exhaust the node budget"
  | exception Budget.Exhausted Budget.Budget_exhausted -> ());
  check_bool "check reports exhaustion" true
    (Budget.check b = Some Budget.Budget_exhausted)

let test_deadline () =
  (* negative deadline: already expired, independent of clock granularity *)
  let b = Budget.create ~deadline:(-1.0) () in
  (* The clock is only polled every few hundred ticks, so loop well
     past one period. *)
  match
    for _ = 1 to 10_000 do
      Budget.tick b
    done
  with
  | () -> Alcotest.fail "expired deadline never raised"
  | exception Budget.Exhausted Budget.Timeout -> ()

let test_tick_n_crosses_period () =
  let b = Budget.create ~deadline:(-1.0) () in
  match Budget.tick_n b 100_000 with
  | () -> Alcotest.fail "bulk tick ignored the deadline"
  | exception Budget.Exhausted Budget.Timeout -> ()

let test_cancel () =
  let b = Budget.create ~cancel:(fun () -> true) () in
  match
    for _ = 1 to 10_000 do
      Budget.tick b
    done
  with
  | () -> Alcotest.fail "cancellation hook never honored"
  | exception Budget.Exhausted Budget.Cancelled -> ()

let test_unlimited_counts () =
  let b = Budget.create () in
  for _ = 1 to 1_000 do
    Budget.tick b
  done;
  check "spent" 1_000 (Budget.spent b);
  check_bool "never exhausts" true (Budget.check b = None)

let test_guard_and_internal_error () =
  (match Budget.guard (fun () -> 42) with
  | Ok v -> check "plain value" 42 v
  | Error _ -> Alcotest.fail "guard failed a pure thunk");
  (* an exhausted budget short-circuits before running the thunk *)
  let b = Budget.create ~nodes:0 () in
  (match Budget.guard ~budget:b (fun () -> Alcotest.fail "ran anyway") with
  | Error Budget.Budget_exhausted -> ()
  | _ -> Alcotest.fail "exhausted budget not prechecked");
  match
    Budget.guard (fun () ->
        Budget.internal_error ~where:"Test.engine" "stuck at %d (n=%d)" 7 32)
  with
  | Error (Budget.Internal msg) ->
      check_string "context preserved" "Test.engine: stuck at 7 (n=32)" msg
  | _ -> Alcotest.fail "Internal_error not captured"

let test_failure_strings () =
  check_string "timeout" "timeout" (Budget.failure_to_string Budget.Timeout);
  check_string "budget" "budget-exhausted"
    (Budget.failure_to_string Budget.Budget_exhausted);
  check_string "too-large" "too-large: x"
    (Budget.failure_to_string (Budget.Too_large "x"))

(* ------------------------------------------------------------------ *)
(* Engines honor their budgets                                         *)

(* A graph big enough that every exhaustive engine runs essentially
   forever, but structurally fine (so only the budget can stop it). *)
let big_layered () =
  Dmc_gen.Random_dag.layered (Rng.create 1234) ~layers:8 ~width:6 ~edge_prob:0.5

let within_2x_deadline f =
  let deadline = 0.2 in
  let t0 = Budget.now () in
  let result = f (Budget.create ~deadline ()) in
  let elapsed = Budget.now () -. t0 in
  (* "promptly": within ~2x the deadline, plus scheduling slack *)
  check_bool
    (Printf.sprintf "returned within 2x deadline (took %.2fs)" elapsed)
    true
    (elapsed < (2.0 *. deadline) +. 0.3);
  result

let test_partition_deadline () =
  let g = big_layered () in
  match
    within_2x_deadline (fun budget -> Bounds.Engine.partition_lb ~budget g ~s:3)
  with
  | Error Budget.Timeout -> ()
  | Ok v -> Alcotest.failf "exponential search finished?! (%d)" v
  | Error e -> Alcotest.failf "wrong failure: %s" (Budget.failure_to_string e)

let test_rbw_node_budget () =
  (* The search ticks once per popped state; 50 states is far
     too few for a 16-vertex game, so the budget must fire first. *)
  let g = Dmc_gen.Shapes.diamond ~rows:4 ~cols:4 in
  match
    Bounds.Engine.rbw_io
      ~budget:(Budget.create ~nodes:50 ())
      ~max_states:max_int g ~s:4
  with
  | Error Budget.Budget_exhausted -> ()
  | Ok v -> Alcotest.failf "game solved within 50 states?! (%d)" v
  | Error e -> Alcotest.failf "wrong failure: %s" (Budget.failure_to_string e)

let test_state_budget () =
  let g = big_layered () in
  match Bounds.Engine.partition_lb ~budget:(Budget.create ~nodes:500 ()) g ~s:3 with
  | Error Budget.Budget_exhausted -> ()
  | Ok v -> Alcotest.failf "search finished under 500 nodes?! (%d)" v
  | Error e -> Alcotest.failf "wrong failure: %s" (Budget.failure_to_string e)

let test_engine_too_large () =
  let g = Dmc_gen.Shapes.chain 40 in
  match Bounds.Engine.rbw_io g ~s:3 with
  | Error (Budget.Too_large _) -> ()
  | _ -> Alcotest.fail "40-vertex graph should be Too_large for rbw_io"

let test_engine_matches_raising_api () =
  let g = Dmc_gen.Shapes.diamond ~rows:3 ~cols:3 in
  let s = 4 in
  match Bounds.Engine.rbw_io g ~s with
  | Ok v -> check "engine = raising api" (Optimal.rbw_io g ~s) v
  | Error e -> Alcotest.failf "engine failed: %s" (Budget.failure_to_string e)

let test_anytime_wavefront_sound () =
  let g = Dmc_gen.Shapes.diamond ~rows:4 ~cols:4 in
  let exact = Wavefront.wmax_exact g in
  (* unbudgeted anytime sweep = plain sampling *)
  let sampled = Wavefront.wmax_sampled_anytime (Rng.create 3) g ~samples:64 in
  check_bool "anytime <= exact" true (sampled <= exact);
  (* an exhausted budget yields the trivial 0, never raises *)
  let b = Budget.create ~nodes:0 () in
  check "exhausted anytime is 0" 0
    (Wavefront.wmax_sampled_anytime ~budget:b (Rng.create 3) g ~samples:64)

(* ------------------------------------------------------------------ *)
(* Graceful degradation ladder                                         *)

let small_cases () =
  [
    ("diamond3x3", Dmc_gen.Shapes.diamond ~rows:3 ~cols:3, 4);
    ("tree8", Dmc_gen.Shapes.reduction_tree 8, 3);
    ("fft4", Dmc_gen.Fft.butterfly 2, 4);
    ("jacobi1d", (Dmc_gen.Stencil.jacobi_1d ~n:4 ~steps:2).graph, 4);
  ]

let test_governed_full_agrees () =
  List.iter
    (fun (name, g, s) ->
      let gov = Bounds.analyze_governed g ~s in
      let opt = Optimal.rbw_io g ~s in
      check_bool (name ^ ": lb <= optimal") true (gov.Bounds.gov_best_lb <= opt);
      match gov.Bounds.gov_best_ub with
      | Some ub -> check_bool (name ^ ": optimal <= ub") true (opt <= ub)
      | None -> Alcotest.failf "%s: no upper bound" name)
    (small_cases ())

let test_governed_fallback_sound () =
  (* With an immediately-expiring budget every exact engine degrades,
     yet each lower-bound row still reports a value, and that value
     stays at or below the true optimum. *)
  List.iter
    (fun (name, g, s) ->
      let gov = Bounds.analyze_governed ~timeout:0.000001 g ~s in
      let opt = Optimal.rbw_io g ~s in
      check_bool (name ^ ": degraded lb <= optimal") true
        (gov.Bounds.gov_best_lb <= opt);
      List.iter
        (fun (r : Bounds.row) ->
          match (r.Bounds.kind, r.Bounds.value) with
          | Bounds.Lower, Some v ->
              check_bool
                (Printf.sprintf "%s/%s: fallback value %d <= optimal %d" name
                   r.Bounds.engine v opt)
                true (v <= opt)
          | Bounds.Lower, None ->
              Alcotest.failf "%s/%s: lower-bound row lost its value" name
                r.Bounds.engine
          | _ -> ())
        gov.Bounds.gov_rows)
    (small_cases ())

let test_governed_status_strings () =
  let g = Dmc_gen.Shapes.chain 40 in
  let gov = Bounds.analyze_governed g ~s:3 in
  let row name =
    List.find (fun (r : Bounds.row) -> r.Bounds.engine = name)
      gov.Bounds.gov_rows
  in
  check_string "floor ok" "ok" (Bounds.row_status (row "floor"));
  (* 40 vertices: the optimal game is structurally too large and must
     report a skipped-with-fallback status *)
  let opt = row "optimal" in
  check_bool "optimal degraded" true (opt.Bounds.attempts <> []);
  check_string "optimal status" "skipped(fallback=wavefront)"
    (Bounds.row_status opt)

(* ------------------------------------------------------------------ *)
(* One bound pipeline: rung plans, and run control never changes rows  *)

let test_report_plan_gates () =
  let report = Bounds.Report { optimal_limit = 20 } in
  let ladder = Bounds.Ladder { timeout = None; node_budget = None } in
  let refused mode g e =
    List.exists
      (function Bounds.Refused _ -> true | Bounds.Rung _ -> false)
      (Bounds.plan mode g ~s:8 e)
  in
  let big = Dmc_gen.Workload.parse_exn "fft:5" in
  List.iter
    (fun e -> check_bool (e ^ " refused by size on fft:5") true (refused report big e))
    [ "partition-h"; "partition-u"; "span"; "optimal" ];
  check_bool "report wavefront is one rung" true
    (match Bounds.plan report big ~s:8 "wavefront" with
    | [ Bounds.Rung ("auto", _) ] -> true
    | _ -> false);
  let tiny = Dmc_gen.Shapes.chain 5 in
  List.iter
    (fun (e, _) ->
      check_bool (e ^ ": nothing refused on chain:5") false (refused report tiny e);
      check_bool (e ^ ": the ladder has no gates") false (refused ladder big e))
    Bounds.governed_engines;
  check_bool "optimal only when asked" true
    (refused (Bounds.Report { optimal_limit = 0 }) tiny "optimal")

let dmc_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "dmc.exe"

(* One small instance per registered family, with an S every schedule
   accepts; a new family must add one here. *)
let pipeline_specs =
  [
    ("chain:4", 4); ("tree:4", 4); ("diamond:2,3", 4); ("fft:1", 4);
    ("bitonic:1", 4); ("pyramid:2", 4); ("binomial:2", 4); ("matmul:1", 4);
    ("lu:2", 4); ("cholesky:2", 4); ("outer:2", 4); ("dot:3", 4);
    ("composite:2", 4); ("jacobi1d:3,2", 4); ("jacobi2d:2,1", 8);
    ("jacobi3d:2,1", 8); ("spmv:3,2", 8); ("thomas:3", 4);
    ("multigrid:4,1,1", 8); ("cg:2,1,1", 8); ("gmres:2,1,1", 8);
    ("daggen:1,8,50,40,1", 4); ("layered:1,2,2", 4);
  ]

let test_specs_cover_registry () =
  let family (spec, _) = List.hd (String.split_on_char ':' spec) in
  Alcotest.(check (list string))
    "one spec per family"
    (List.sort compare Dmc_gen.Workload.names)
    (List.sort compare (List.map family pipeline_specs))

(* Start [dmc bounds ARGS]; the returned thunk waits for it and gives
   its stdout and exit code. *)
let spawn_bounds args =
  if not (Sys.file_exists dmc_exe) then
    Alcotest.fail ("dmc binary missing: " ^ dmc_exe);
  let cmd =
    String.concat " " (List.map Filename.quote (dmc_exe :: "bounds" :: args))
    ^ " 2>/dev/null"
  in
  let ic = Unix.open_process_in cmd in
  fun () ->
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED code -> (out, code)
    | _ -> Alcotest.failf "%s died on a signal" cmd

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* What may differ between runs: the profile appended after the answer,
   and the wall-clock time column of the ladder table. *)
let comparable out =
  let answer =
    match find_sub out "== profile" with
    | Some i -> String.sub out 0 i
    | None -> out
  in
  String.split_on_char '\n' answer
  |> List.map (fun line ->
         if String.length line > 0 && line.[0] = '|' then
           String.sub line 0 (String.rindex_from line (String.length line - 2) '|')
         else line)
  |> String.concat "\n"

let test_run_control_never_changes_rows () =
  let trace = Filename.temp_file "dmc-pipeline" ".json" in
  let variants =
    [
      [ "--jobs"; "3" ]; [ "--trace"; trace ]; [ "--progress" ]; [ "--profile" ];
    ]
  in
  List.iter
    (fun (spec, s) ->
      List.iter
        (fun mode ->
          let base = [ "-g"; spec; "-S"; string_of_int s ] @ mode in
          let runs =
            List.map
              (fun v -> (v, spawn_bounds (base @ v)))
              ([ "--jobs"; "1" ] :: variants)
          in
          let results = List.map (fun (v, wait) -> (v, wait ())) runs in
          let ref_out, ref_code = snd (List.hd results) in
          let what v = String.concat " " (base @ v) in
          check (what [] ^ ": exit") 0 ref_code;
          List.iter
            (fun (v, (out, code)) ->
              check (what v ^ ": exit") ref_code code;
              check_string (what v) (comparable ref_out) (comparable out))
            (List.tl results))
        [ []; [ "-p"; "2" ]; [ "--budget"; "20000" ] ])
    pipeline_specs;
  Sys.remove trace

let test_mp_honours_run_control () =
  let args =
    [ "-g"; "fft:3"; "-S"; "8"; "-p"; "2"; "--jobs"; "2"; "--fault"; "abort:1";
      "--retries"; "0" ]
  in
  let out, code = spawn_bounds args () in
  check "exit" 0 code;
  let mp_comm_lb =
    List.find
      (fun l -> String.length l > 12 && String.sub l 0 12 = "  mp-comm-lb")
      (String.split_on_char '\n' out)
  in
  check_bool ("lost worker falls to the floor: " ^ mp_comm_lb) true
    (find_sub mp_comm_lb "rung=floor" <> None
    && find_sub mp_comm_lb "internal(fallback=floor)" <> None);
  let json, code = spawn_bounds (args @ [ "--json" ]) () in
  check "json exit" 0 code;
  let failed =
    match Json.parse json with
    | Error e -> Alcotest.fail e
    | Ok j -> (
        let rows = Option.bind (Json.mem j "rows") Json.as_list in
        match rows with
        | Some (row :: _) ->
            Option.bind (Json.mem row "failed_rungs") Json.as_list
            |> Option.value ~default:[]
            |> List.filter_map (fun f -> Option.bind (Json.mem f "rung") Json.as_string)
        | _ -> [])
  in
  Alcotest.(check (list string)) "failed rung" [ "worker" ] failed

(* A report has no status column, so a lost worker never lends its
   terminal rung's value to the engine's label: an optional field
   prints "-", a required one fails the run. *)
let test_report_lost_worker () =
  let plain, code = spawn_bounds [ "-g"; "tree:8"; "-S"; "3"; "--optimal" ] () in
  check "plain exit" 0 code;
  check_bool "plain run solves the optimum" true (find_sub plain "optimal: 15" <> None);
  let lost args = spawn_bounds (args @ [ "--retries"; "0" ]) () in
  let out, code =
    lost [ "-g"; "tree:8"; "-S"; "3"; "--optimal"; "--jobs"; "2"; "--fault"; "abort:6" ]
  in
  check "optimal lost: exit" 0 code;
  check_bool ("optimal lost prints no value: " ^ out) true
    (find_sub out "optimal: -" <> None);
  let other_rows out =
    List.filter (fun l -> find_sub l "optimal:" = None) (String.split_on_char '\n' out)
  in
  Alcotest.(check (list string)) "optimal lost: the other rows" (other_rows plain)
    (other_rows out);
  let out, code = lost [ "-g"; "fft:5"; "-S"; "8"; "--jobs"; "2"; "--fault"; "abort:6" ] in
  check "unrequested optimal lost: exit" 0 code;
  let reference, _ = spawn_bounds [ "-g"; "fft:5"; "-S"; "8" ] () in
  check_string "unrequested optimal lost: same report" reference out;
  let out, code = lost [ "-g"; "fft:5"; "-S"; "8"; "--fault"; "abort:1" ] in
  check "floor lost: exit" 1 code;
  check_string "floor lost: no report" "" out

(* ------------------------------------------------------------------ *)
(* Checkpoint file plumbing                                            *)

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "dmc-test-ckpt" ".json" in
  let value =
    Json.Obj
      [
        ("kind", Json.String "test");
        ("next_case", Json.Int 17);
        ("rng", Json.String "00000000000000a5");
        ("ratio", Json.Float 0.25);
        ("flags", Json.List [ Json.Bool true; Json.Null ]);
      ]
  in
  Checkpoint.write path value;
  (match Checkpoint.load path with
  | Error m -> Alcotest.fail m
  | Ok loaded ->
      check_bool "roundtrip" true (loaded = value);
      check "field access" 17
        (Option.get (Option.bind (Json.mem loaded "next_case") Json.as_int)));
  Sys.remove path;
  match Checkpoint.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a deleted checkpoint"

let test_checkpoint_sweep () =
  let dir = Filename.temp_file "dmc-test-sweep" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "state.json" in
  let make name mtime =
    let full = Filename.concat dir name in
    let oc = open_out full in
    output_string oc "{}";
    close_out oc;
    Option.iter (fun t -> Unix.utimes full t t) mtime;
    full
  in
  let old_age = Unix.gettimeofday () -. 3600. in
  (* Two orphans from a SIGKILLed predecessor, one live temp from a
     concurrent writer, and bystanders that merely look similar. *)
  let orphan1 = make "state.json.abc123.tmp" (Some old_age) in
  let orphan2 = make "state.json.def456.tmp" (Some old_age) in
  let live = make "state.json.ghi789.tmp" None in
  let other_base = make "other.json.abc123.tmp" (Some old_age) in
  let not_tmp = make "state.json.notes" (Some old_age) in
  check "two orphans removed" 2 (Checkpoint.sweep_orphans path);
  check_bool "old orphans gone" true
    ((not (Sys.file_exists orphan1)) && not (Sys.file_exists orphan2));
  check_bool "fresh temp survives" true (Sys.file_exists live);
  check_bool "other base's temp survives" true (Sys.file_exists other_base);
  check_bool "non-temp survives" true (Sys.file_exists not_tmp);
  (* write() sweeps implicitly: re-age the live temp and checkpoint. *)
  Unix.utimes live old_age old_age;
  Checkpoint.write path (Json.Obj [ ("ok", Json.Bool true) ]);
  check_bool "write swept the aged temp" true (not (Sys.file_exists live));
  check_bool "checkpoint landed" true (Sys.file_exists path);
  List.iter Sys.remove [ other_base; not_tmp; path ];
  Unix.rmdir dir

(* The explicit age threshold: a temp younger than [max_age] is a
   concurrent writer's live file and must survive; the same file under
   a tighter threshold is an orphan. *)
let test_checkpoint_sweep_age_threshold () =
  let dir = Filename.temp_file "dmc-test-sweep-age" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "state.json" in
  let temp = Filename.concat dir "state.json.abc123.tmp" in
  let oc = open_out temp in
  output_string oc "{}";
  close_out oc;
  let age = Unix.gettimeofday () -. 120. in
  Unix.utimes temp age age;
  check "2-minute-old temp survives a 300s threshold" 0
    (Checkpoint.sweep_orphans ~max_age:300. path);
  check_bool "still there" true (Sys.file_exists temp);
  check "same temp reaped under a 60s threshold" 1
    (Checkpoint.sweep_orphans ~max_age:60. path);
  check_bool "gone" true (not (Sys.file_exists temp));
  Unix.rmdir dir

let test_json_parse_errors () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" text)
    [ ""; "{"; "[1,"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

let () =
  Alcotest.run "dmc_budget"
    [
      ( "guard",
        [
          Alcotest.test_case "node budget" `Quick test_node_budget;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "tick_n crosses period" `Quick test_tick_n_crosses_period;
          Alcotest.test_case "cancellation" `Quick test_cancel;
          Alcotest.test_case "unlimited still counts" `Quick test_unlimited_counts;
          Alcotest.test_case "guard and internal errors" `Quick test_guard_and_internal_error;
          Alcotest.test_case "failure strings" `Quick test_failure_strings;
        ] );
      ( "engines",
        [
          Alcotest.test_case "partition honors deadline" `Quick test_partition_deadline;
          Alcotest.test_case "rbw honors node budget" `Quick test_rbw_node_budget;
          Alcotest.test_case "state budget" `Quick test_state_budget;
          Alcotest.test_case "too large" `Quick test_engine_too_large;
          Alcotest.test_case "matches raising api" `Quick test_engine_matches_raising_api;
          Alcotest.test_case "anytime wavefront sound" `Quick test_anytime_wavefront_sound;
        ] );
      ( "governed",
        [
          Alcotest.test_case "full run agrees" `Quick test_governed_full_agrees;
          Alcotest.test_case "fallback stays sound" `Quick test_governed_fallback_sound;
          Alcotest.test_case "status strings" `Quick test_governed_status_strings;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "report plan gates" `Quick test_report_plan_gates;
          Alcotest.test_case "one spec per family" `Quick test_specs_cover_registry;
          Alcotest.test_case "run control never changes rows" `Quick
            test_run_control_never_changes_rows;
          Alcotest.test_case "report drops a lost worker's row" `Quick
            test_report_lost_worker;
          Alcotest.test_case "-p honours run control" `Quick
            test_mp_honours_run_control;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "orphan temp sweep" `Quick test_checkpoint_sweep;
          Alcotest.test_case "orphan sweep age threshold" `Quick
            test_checkpoint_sweep_age_threshold;
          Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
        ] );
    ]
