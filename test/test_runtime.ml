(* Tests for the supervised worker pool: IPC framing, fault-spec
   parsing, deterministic backoff, and — via the fault-injection hook —
   every verdict the supervisor can hand back, plus retry accounting
   and the in-submission-order commit that makes [--jobs N] output
   byte-identical to [--jobs 1]. *)

module Json = Dmc_util.Json
module Budget = Dmc_util.Budget
module Ipc = Dmc_util.Ipc
module Fault = Dmc_runtime.Fault
module Pool = Dmc_runtime.Pool
module Progress = Dmc_runtime.Progress
module Run = Dmc_runtime.Run

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* IPC framing                                                         *)

let test_ipc_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Int 42;
      Json.String "hello \"quoted\" \n world";
      Json.Obj [ ("ok", Json.List [ Json.Int 1; Json.Bool false ]) ];
    ]
  in
  List.iter
    (fun v ->
      match Ipc.decode_frame (Ipc.encode_frame v) with
      | Ok v' -> check_bool "roundtrip" true (v = v')
      | Error e -> Alcotest.fail (Ipc.read_error_to_string e))
    values

let test_ipc_pipe () =
  let r, w = Unix.pipe ~cloexec:false () in
  let v = Json.Obj [ ("payload", Json.String (String.make 10_000 'x')) ] in
  (* Pipe capacity exceeds this frame, so a single-threaded
     write-then-read cannot deadlock. *)
  Ipc.write_frame w v;
  Unix.close w;
  (match Ipc.read_frame r with
  | Ok v' -> check_bool "pipe roundtrip" true (v = v')
  | Error e -> Alcotest.fail (Ipc.read_error_to_string e));
  (match Ipc.read_frame r with
  | Error Ipc.Closed -> ()
  | Ok _ -> Alcotest.fail "read past EOF succeeded"
  | Error e -> Alcotest.failf "expected Closed, got %s" (Ipc.read_error_to_string e));
  Unix.close r

let test_ipc_errors () =
  let fail_with name expected s =
    match Ipc.decode_frame s with
    | Ok _ -> Alcotest.failf "%s: decoded garbage" name
    | Error e ->
        check_bool name true
          (match (expected, e) with
          | `Closed, Ipc.Closed
          | `Bad_header, Ipc.Bad_header _
          | `Oversized, Ipc.Oversized _
          | `Truncated, Ipc.Truncated _
          | `Malformed, Ipc.Malformed _ ->
              true
          | _ -> false)
  in
  fail_with "empty" `Closed "";
  fail_with "non-hex header" `Bad_header "*** not an ipc frame ***";
  fail_with "short header" `Truncated "0000";
  fail_with "payload cut short" `Truncated "0000000a{\"a\"";
  fail_with "oversized" `Oversized "ffffffff";
  fail_with "payload not json" `Malformed "00000003tru";
  fail_with "trailing bytes" `Malformed "00000001 1 trailing"

(* ------------------------------------------------------------------ *)
(* Fault specs                                                         *)

let test_fault_parse () =
  (match Fault.parse "hang:3,abort:2:1,garbage:7" with
  | Error m -> Alcotest.fail m
  | Ok faults ->
      check "three clauses" 3 (List.length faults);
      check_string "roundtrip" "hang:3,abort:2:1,garbage:7"
        (String.concat "," (List.map Fault.to_string faults)));
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed fault spec %S" spec)
    [ "hang"; "hang:"; "hang:0"; "hang:x"; "explode:1"; "hang:1:0"; "hang:1:2:3" ];
  (* an empty spec means "no faults", not a parse error *)
  check_bool "empty spec" true (Fault.parse "" = Ok [])

let test_fault_applies () =
  match Fault.parse "abort:2:1,hang:3" with
  | Error m -> Alcotest.fail m
  | Ok faults ->
      (* 1-based spec against 0-based submission index *)
      check_bool "job 0 clean" true (Fault.applies faults ~job:0 ~attempt:1 = None);
      check_bool "job 1 attempt 1" true
        (Fault.applies faults ~job:1 ~attempt:1 = Some Fault.Abort);
      check_bool "job 1 attempt 2 clean" true
        (Fault.applies faults ~job:1 ~attempt:2 = None);
      check_bool "job 2 every attempt" true
        (Fault.applies faults ~job:2 ~attempt:5 = Some Fault.Hang)

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)

let test_backoff () =
  let cfg = { Pool.default with backoff_base = 0.1; backoff_cap = 2.0 } in
  let d ~job ~attempt = Pool.backoff_delay cfg ~job ~attempt in
  check_bool "deterministic" true (d ~job:3 ~attempt:2 = d ~job:3 ~attempt:2);
  check_bool "jitter distinguishes jobs" true (d ~job:0 ~attempt:1 <> d ~job:1 ~attempt:1);
  (* un-jittered schedule doubles then caps; jitter adds at most 25% *)
  for attempt = 1 to 8 do
    let base = min cfg.backoff_cap (cfg.backoff_base *. (2. ** float_of_int (attempt - 1))) in
    let delay = d ~job:5 ~attempt in
    check_bool "at least base" true (delay >= base);
    check_bool "jitter bounded" true (delay <= base *. 1.25)
  done;
  check_bool "capped" true (d ~job:5 ~attempt:30 <= cfg.backoff_cap *. 1.25)

(* ------------------------------------------------------------------ *)
(* Pool verdicts via fault injection                                   *)

let quick_worker _i n = Ok (Json.Int (n * n))

let run_one ?(timeout = 5.0) ?(max_retries = 0) ?(faults = []) worker =
  let cfg =
    { Pool.default with timeout = Some timeout; max_retries; faults }
  in
  let outcomes = Pool.run cfg ~worker [ 7 ] in
  check "one outcome" 1 (Array.length outcomes);
  outcomes.(0)

let test_verdict_ok () =
  let o = run_one quick_worker in
  (match o.Pool.verdict with
  | Pool.Done (Json.Int 49) -> ()
  | v -> Alcotest.failf "expected Done 49, got %s" (Pool.verdict_to_string v));
  check "single attempt" 1 o.Pool.attempts;
  check "no backoffs" 0 (List.length o.Pool.backoffs)

let test_verdict_timed_out () =
  let faults = Result.get_ok (Fault.parse "hang:1") in
  let o = run_one ~timeout:0.3 ~faults quick_worker in
  match o.Pool.verdict with
  | Pool.Timed_out -> ()
  | v -> Alcotest.failf "expected Timed_out, got %s" (Pool.verdict_to_string v)

let test_verdict_crashed () =
  let faults = Result.get_ok (Fault.parse "abort:1") in
  let o = run_one ~faults quick_worker in
  match o.Pool.verdict with
  | Pool.Crashed s ->
      check_string "signal" "SIGABRT" (Pool.signal_name s)
  | v -> Alcotest.failf "expected Crashed, got %s" (Pool.verdict_to_string v)

let test_verdict_protocol_error () =
  let faults = Result.get_ok (Fault.parse "garbage:1") in
  let o = run_one ~faults quick_worker in
  match o.Pool.verdict with
  | Pool.Worker_protocol_error _ -> ()
  | v ->
      Alcotest.failf "expected Worker_protocol_error, got %s"
        (Pool.verdict_to_string v)

let test_verdict_engine_failure () =
  (* Deterministic worker-reported failures must not be retried even
     when retries are allowed. *)
  let o = run_one ~max_retries:3 (fun _ _ -> Error Budget.Timeout) in
  (match o.Pool.verdict with
  | Pool.Engine_failure Budget.Timeout -> ()
  | v -> Alcotest.failf "expected Engine_failure, got %s" (Pool.verdict_to_string v));
  check "no retry of deterministic failure" 1 o.Pool.attempts

let test_verdict_worker_exception () =
  (* An exception escaping the worker maps into the failure taxonomy
     rather than crashing the child without a frame. *)
  let o = run_one (fun _ _ -> failwith "boom") in
  match o.Pool.verdict with
  | Pool.Engine_failure (Budget.Internal _) -> ()
  | v -> Alcotest.failf "expected Engine_failure internal, got %s" (Pool.verdict_to_string v)

let test_retry_recovers () =
  (* Fault only on attempt 1: the retry must succeed, with the backoff
     slept before it on the books. *)
  let faults = Result.get_ok (Fault.parse "abort:1:1") in
  let cfg =
    {
      Pool.default with
      timeout = Some 5.0;
      max_retries = 2;
      backoff_base = 0.01;
      backoff_cap = 0.05;
      faults;
    }
  in
  let o = (Pool.run cfg ~worker:quick_worker [ 7 ]).(0) in
  (match o.Pool.verdict with
  | Pool.Done (Json.Int 49) -> ()
  | v -> Alcotest.failf "expected Done after retry, got %s" (Pool.verdict_to_string v));
  check "two attempts" 2 o.Pool.attempts;
  check "one backoff slept" 1 (List.length o.Pool.backoffs);
  check_bool "backoff matches schedule" true
    (o.Pool.backoffs = [ Pool.backoff_delay cfg ~job:0 ~attempt:1 ])

let test_retry_exhausts () =
  (* Fault on every attempt: retries burn down, verdict stays Crashed. *)
  let faults = Result.get_ok (Fault.parse "abort:1") in
  let cfg =
    {
      Pool.default with
      timeout = Some 5.0;
      max_retries = 2;
      backoff_base = 0.01;
      backoff_cap = 0.05;
      faults;
    }
  in
  let o = (Pool.run cfg ~worker:quick_worker [ 7 ]).(0) in
  (match o.Pool.verdict with
  | Pool.Crashed _ -> ()
  | v -> Alcotest.failf "expected Crashed, got %s" (Pool.verdict_to_string v));
  check "all attempts used" 3 o.Pool.attempts;
  check "backoff per retry" 2 (List.length o.Pool.backoffs)

let test_verdict_failure_mapping () =
  let open Pool in
  check_bool "timed-out -> timeout" true
    (verdict_failure Timed_out = Some Budget.Timeout);
  check_bool "crash -> internal" true
    (match verdict_failure (Crashed Sys.sigabrt) with
    | Some (Budget.Internal _) -> true
    | _ -> false);
  check_bool "protocol -> internal" true
    (match verdict_failure (Worker_protocol_error "x") with
    | Some (Budget.Internal _) -> true
    | _ -> false);
  check_bool "engine failure passes through" true
    (verdict_failure (Engine_failure Budget.Budget_exhausted)
    = Some Budget.Budget_exhausted);
  check_bool "done -> none" true (verdict_failure (Done Json.Null) = None)

(* ------------------------------------------------------------------ *)
(* Order determinism                                                   *)

let staggered_worker i n =
  (* Later submissions finish first, so out-of-order completion is
     guaranteed, not just possible. *)
  Unix.sleepf (float_of_int (8 - i) *. 0.02);
  Ok (Json.Int (n * 10))

(* [batch ~on_result] runs the staggered jobs on some backend. *)
let commit_trace batch =
  let order = ref [] in
  let outcomes =
    batch ~on_result:(fun i o ->
        let payload =
          match o.Pool.verdict with
          | Pool.Done j -> Json.to_string j
          | v -> Pool.verdict_to_string v
        in
        order := (i, payload) :: !order)
  in
  (List.rev !order, outcomes)

let test_order_determinism () =
  let jobs = List.init 8 (fun i -> i + 1) in
  let pool cfg ~on_result = Pool.run cfg ~worker:staggered_worker ~on_result jobs in
  let seq, seq_out = commit_trace (pool { Pool.default with jobs = 1 }) in
  let par, par_out = commit_trace (pool { Pool.default with jobs = 4 }) in
  let inp, inp_out =
    commit_trace (fun ~on_result ->
        Run.batch Run.default ~worker:staggered_worker
          ~on_result:(fun i o ->
            on_result i o;
            Json.Null)
          jobs)
  in
  check_bool "commit order is submission order" true
    (List.map fst par = [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  check_bool "parallel trace equals sequential trace" true (seq = par);
  check_bool "in-process trace equals parallel trace" true (inp = par);
  let same_verdicts a b =
    Array.for_all2 (fun x y -> x.Pool.verdict = y.Pool.verdict) a b
  in
  check_bool "outcome payloads agree" true
    (same_verdicts seq_out par_out && same_verdicts inp_out par_out)

let test_isolation () =
  (* One crashing worker must not disturb its siblings' results. *)
  let faults = Result.get_ok (Fault.parse "abort:3") in
  let cfg = { Pool.default with jobs = 4; timeout = Some 5.0; faults } in
  let outcomes = Pool.run cfg ~worker:quick_worker [ 1; 2; 3; 4; 5 ] in
  Array.iteri
    (fun i o ->
      match (i, o.Pool.verdict) with
      | 2, Pool.Crashed _ -> ()
      | 2, v -> Alcotest.failf "job 2: expected Crashed, got %s" (Pool.verdict_to_string v)
      | i, Pool.Done (Json.Int sq) -> check "square" ((i + 1) * (i + 1)) sq
      | i, v -> Alcotest.failf "job %d: %s" i (Pool.verdict_to_string v))
    outcomes

let test_stop_accounting () =
  (* A hard stop while job 0 still blocks the commit prefix: jobs 1-3
     may have finished out of order, but nothing was committed, so
     every outcome must read Cancelled — the number of non-Cancelled
     outcomes must always equal the number of on_result calls. *)
  let t0 = Unix.gettimeofday () in
  let cfg =
    {
      Pool.default with
      jobs = 4;
      should_stop = (fun () -> Unix.gettimeofday () -. t0 > 0.4);
    }
  in
  let commits = ref 0 in
  let worker i _ =
    Unix.sleepf (if i = 0 then 10.0 else 0.05);
    Ok (Json.Int i)
  in
  let outcomes =
    Pool.run cfg ~worker ~on_result:(fun _ _ -> incr commits) [ 0; 1; 2; 3; 4; 5 ]
  in
  let non_cancelled =
    Array.fold_left
      (fun acc o ->
        match o.Pool.verdict with
        | Pool.Engine_failure Budget.Cancelled -> acc
        | _ -> acc + 1)
      0 outcomes
  in
  check "non-cancelled outcomes = committed results" !commits non_cancelled;
  check "nothing committed past the blocked prefix" 0 !commits;
  (* The in-process backend under a drain deadline that passes during
     job 1: jobs 0 and 1 commit, nothing after them starts. *)
  let commits = ref 0 in
  let outcomes =
    Run.batch
      ~deadline:(Unix.gettimeofday () +. 0.15)
      Run.default
      ~worker:(fun i _ ->
        Unix.sleepf 0.1;
        Ok (Json.Int i))
      ~on_result:(fun _ _ ->
        incr commits;
        Json.Null)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  check "in-process drain: non-cancelled = committed" !commits
    (Array.length outcomes - Run.cancelled outcomes);
  check "in-process drain: started jobs committed" 2 !commits;
  (* ... and under a stop: job 2 interrupts its own process, so the
     batch commits it and stops.  A batch nested inside job 2 still
     runs whole.  The interrupt flag is process-wide, so this runs in a
     child that reports commits * 10 + non-cancelled as its exit code. *)
  match Unix.fork () with
  | 0 ->
      Run.install_interrupt_handlers ();
      let commits = ref 0 and inner = ref 0 in
      let outcomes =
        Run.batch Run.default
          ~worker:(fun i _ ->
            if i = 2 then begin
              Unix.kill (Unix.getpid ()) Sys.sigint;
              ignore
                (Run.batch Run.default
                   ~worker:(fun j _ -> Ok (Json.Int j))
                   ~on_result:(fun _ _ ->
                     incr inner;
                     Json.Null)
                   [ 0; 1; 2 ])
            end;
            Ok (Json.Int i))
          ~on_result:(fun _ _ ->
            incr commits;
            Json.Null)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let code =
        if Run.interrupted () <> Some 130 || !inner <> 3 then 99
        else (!commits * 10) + Array.length outcomes - Run.cancelled outcomes
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED code ->
          check "in-process stop: 3 committed, 3 non-cancelled" 33 code
      | _ -> Alcotest.fail "in-process stop child died")

(* The backend rule: nothing needing a supervisor runs the worker in
   the caller; a job timeout (SIGKILL deadline) forces a fork. *)
let test_backend_choice () =
  let pid_of settings =
    match
      (Run.batch settings
         ~worker:(fun _ () -> Ok (Json.Int (Unix.getpid ())))
         [ () ]).(0).Pool.verdict
    with
    | Pool.Done (Json.Int pid) -> pid
    | v -> Alcotest.failf "pid probe: %s" (Pool.verdict_to_string v)
  in
  let me = Unix.getpid () in
  let timed = { Run.default with job_timeout = Some 5.0 } in
  check_bool "default is in-process" false (Run.supervised Run.default);
  check_bool "jobs=1 runs in the caller" true (pid_of Run.default = me);
  check_bool "a job timeout is supervised" true (Run.supervised timed);
  check_bool "a job timeout runs in a child" true (pid_of timed <> me)

(* ------------------------------------------------------------------ *)
(* Committed-prefix checkpoint                                         *)

module Checkpoint = Dmc_util.Checkpoint

let ckpt_jobs = List.init 6 (fun i -> i + 1)
let in_process = Run.default
let pooled = { Run.default with jobs = 3 }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run the squaring batch, checkpointing to [path]; returns the commit
   trace and the outcomes. *)
let run_checkpointed ?resume ?(kind = "test") ?(signature = Json.String "sig")
    settings path =
  let trace = ref [] in
  let checkpoint = { Run.path = Some path; resume; kind; signature } in
  let outcomes =
    Run.batch ~checkpoint settings
      ~worker:(fun _ n -> Ok (Json.Int (n * n)))
      ~on_result:(fun i o ->
        let payload =
          match o.Pool.verdict with
          | Pool.Done p -> p
          | v -> Json.String (Pool.verdict_to_string v)
        in
        trace := (i, Json.to_string payload) :: !trace;
        payload)
      ckpt_jobs
  in
  (List.rev !trace, outcomes)

(* [json] with its field [name] mapped through [f]. *)
let with_field name f json =
  match json with
  | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) fields)
  | _ -> Alcotest.fail "checkpoint is not an object"

let committed_prefix k =
  with_field "committed" (function
    | Json.List l -> Json.List (List.filteri (fun i _ -> i < k) l)
    | _ -> Alcotest.fail "no committed list")

(* A full run's checkpoint cut to k payloads resumes to the same commit
   sequence and the same final checkpoint, dispatching only the rest. *)
let test_checkpoint_resume settings () =
  let full = Filename.temp_file "dmc-run-full" ".json" in
  Sys.remove full;
  let reference, _ = run_checkpointed settings full in
  let full_bytes = read_file full in
  let stored = Result.get_ok (Checkpoint.load full) in
  List.iter
    (fun k ->
      let cut = Filename.temp_file "dmc-run-cut" ".json" in
      Checkpoint.write cut (committed_prefix k stored);
      let trace, outcomes = run_checkpointed ~resume:cut settings cut in
      let label what = Printf.sprintf "k=%d: %s" k what in
      check_bool (label "same commit sequence") true (trace = reference);
      check_string (label "same final checkpoint") full_bytes (read_file cut);
      check (label "one outcome per job") 6 (Array.length outcomes);
      Array.iteri
        (fun i o ->
          check_bool
            (label (Printf.sprintf "job %d dispatched iff past the prefix" i))
            (i >= k) (o.Pool.attempts > 0))
        outcomes;
      Sys.remove cut)
    [ 0; 1; 3; 6 ];
  Sys.remove full

(* Each foreign checkpoint is refused before anything runs. *)
let test_checkpoint_refusals settings () =
  let full = Filename.temp_file "dmc-run-full" ".json" in
  Sys.remove full;
  ignore (run_checkpointed settings full);
  let stored = Result.get_ok (Checkpoint.load full) in
  let refused what ?kind ?signature json =
    let path = Filename.temp_file "dmc-run-foreign" ".json" in
    Checkpoint.write path json;
    let bytes = read_file path in
    (match run_checkpointed ~resume:path ?kind ?signature settings path with
    | exception Failure msg ->
        check_bool (what ^ ": names the file") true
          (String.starts_with ~prefix:("cannot resume from " ^ path) msg)
    | _ -> Alcotest.failf "%s: resumed" what);
    check_string (what ^ ": checkpoint untouched") bytes (read_file path);
    Sys.remove path
  in
  refused "foreign kind" ~kind:"other" stored;
  refused "foreign version" (with_field "v" (fun _ -> Json.Int 2) stored);
  refused "no version"
    (match stored with
    | Json.Obj fields -> Json.Obj (List.remove_assoc "v" fields)
    | _ -> Alcotest.fail "checkpoint is not an object");
  refused "different signature" ~signature:(Json.String "other") stored;
  refused "over-long prefix"
    (with_field "committed"
       (function
         | Json.List l -> Json.List (l @ [ Json.Int 0 ])
         | _ -> Alcotest.fail "no committed list")
       stored);
  Sys.remove full

(* The same through the real binaries: a full run's checkpoint cut to
   a 4-payload prefix resumes to the uninterrupted stdout and exit
   code. *)
let bin name =
  let dir = Filename.dirname Sys.executable_name in
  let dir =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir
    else dir
  in
  Filename.concat (Filename.concat dir "../bin") name

(* Run [argv] in [dir]: its stdout and exit code. *)
let run_in dir argv =
  let cmd =
    Printf.sprintf "cd %s && %s 2>/dev/null" (Filename.quote dir)
      (String.concat " " (List.map Filename.quote argv))
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (out, code)
  | _ -> Alcotest.failf "%s died on a signal" cmd

let with_temp_dir f =
  let dir = Filename.temp_file "dmc-resume" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Sys.readdir dir
      |> Array.iter (fun n -> Sys.remove (Filename.concat dir n));
      Unix.rmdir dir)
    (fun () -> f dir)

(* [argv] run whole with a checkpoint in [dir], then resumed from that
   checkpoint cut to an [edit]ed 4-payload prefix: both stdouts and
   exit codes. *)
let cut_and_resume ?(edit = Fun.id) dir argv =
  let ckpt = Filename.concat dir "run.ckpt" in
  let whole = run_in dir (argv @ [ "--checkpoint"; ckpt ]) in
  let stored = Result.get_ok (Checkpoint.load ckpt) in
  Checkpoint.write ckpt (committed_prefix 4 (edit stored));
  (whole, run_in dir (argv @ [ "--resume"; ckpt ]))

let resumes_identically ~code argv =
  with_temp_dir @@ fun dir ->
  let what = String.concat " " (List.tl argv) in
  let (out, c), (out', c') = cut_and_resume dir argv in
  check (what ^ ": exit code") code c;
  check_string (what ^ ": resumed stdout") out out';
  check (what ^ ": resumed exit code") c c'

let test_binary_resume () =
  let experiment =
    [ bin "dmc.exe"; "experiment"; "table1"; "sec3"; "jacobi"; "--json" ]
  in
  resumes_identically ~code:0 experiment;
  resumes_identically ~code:0 [ bin "fuzz.exe"; "12"; "7" ];
  (* A lost worker is a committed violation: replayed, it prints and
     fails again. *)
  resumes_identically ~code:1
    [ bin "fuzz.exe"; "6"; "7"; "--fault"; "abort:3"; "--retries"; "0" ];
  (* A part that committed no payload fails the run, replayed or not. *)
  with_temp_dir @@ fun dir ->
  let null_first =
    with_field "committed" (function
      | Json.List (_ :: rest) -> Json.List (Json.Null :: rest)
      | _ -> Alcotest.fail "no committed list")
  in
  let _, (_, code) = cut_and_resume ~edit:null_first dir experiment in
  check "null payload replayed: exit code" 1 code

let test_binary_refusal () =
  with_temp_dir @@ fun dir ->
  let ckpt = Filename.concat dir "run.ckpt" in
  let fuzz = bin "fuzz.exe" in
  ignore (run_in dir [ fuzz; "6"; "7"; "--checkpoint"; ckpt ]);
  let out, code = run_in dir [ fuzz; "40"; "9"; "--resume"; ckpt ] in
  check "another grid: usage exit" 2 code;
  check_string "another grid: nothing run" "" out

(* ------------------------------------------------------------------ *)
(* Progress channel                                                    *)

let test_progress_render () =
  let p =
    {
      Progress.total = 10;
      finished = 3;
      running =
        [ { Progress.job = 4; attempt = 2; phase = "optimal.rbw_io";
            host = "local" } ];
      waiting = 6;
      retries = 1;
      elapsed = 12.0;
      eta = Some 28.0;
      rss_bytes = Some (512 * 1024 * 1024);
    }
  in
  let line = Progress.render p in
  let contains needle =
    let nh = String.length line and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub line i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check_bool ("line mentions " ^ needle) true (contains needle))
    [ "3/10 done"; "1 running"; "job 4"; "try 2"; "optimal.rbw_io";
      "6 waiting"; "1 retr"; "512.0MiB" ];
  (* a quiet pool renders without running/retry/rss fragments *)
  let idle =
    Progress.render
      {
        Progress.total = 2; finished = 2; running = []; waiting = 0;
        retries = 0; elapsed = 1.0; eta = None; rss_bytes = None;
      }
  in
  check_bool "idle line is total-only" true (String.length idle > 0)

let test_progress_rss () =
  match Progress.rss_of_pid (Unix.getpid ()) with
  | Some bytes -> check_bool "own RSS is positive" true (bytes > 0)
  | None -> Alcotest.fail "could not read own /proc RSS"

let test_pool_heartbeats () =
  (* With on_progress set, workers switch into heartbeat mode: extra
     {"hb": ...} frames precede the result frame.  The supervisor must
     surface scheduling snapshots AND still deliver every result
     untouched — the protocol change cannot corrupt payloads. *)
  let snaps = ref [] in
  let cfg =
    {
      Pool.default with
      jobs = 2;
      timeout = Some 5.0;
      on_progress = Some (fun p -> snaps := p :: !snaps);
    }
  in
  let worker _ n =
    Unix.sleepf 0.3;
    Ok (Json.Int (n + 1))
  in
  let outcomes = Pool.run cfg ~worker [ 1; 2; 3 ] in
  Array.iteri
    (fun i o ->
      match o.Pool.verdict with
      | Pool.Done (Json.Int v) -> check "payload intact" (i + 2) v
      | v -> Alcotest.failf "job %d: %s" i (Pool.verdict_to_string v))
    outcomes;
  check_bool "progress snapshots delivered" true (!snaps <> []);
  List.iter
    (fun p ->
      check "total is job count" 3 p.Progress.total;
      check_bool "counts are consistent" true
        (p.Progress.finished + List.length p.Progress.running + p.Progress.waiting
         <= 3
        && p.Progress.finished >= 0))
    !snaps;
  (* the "start" heartbeat marks at least one snapshot's running job *)
  check_bool "a worker phase was observed" true
    (List.exists
       (fun p ->
         List.exists (fun r -> r.Progress.phase = "start") p.Progress.running)
       !snaps)

let test_pool_heartbeats_with_fault () =
  (* Heartbeat mode must not weaken protocol-error detection: a child
     that writes garbage instead of frames is still classified. *)
  let faults = Result.get_ok (Fault.parse "garbage:1") in
  let cfg =
    {
      Pool.default with
      timeout = Some 5.0;
      faults;
      on_progress = Some (fun _ -> ());
    }
  in
  let o = (Pool.run cfg ~worker:quick_worker [ 7 ]).(0) in
  match o.Pool.verdict with
  | Pool.Worker_protocol_error _ -> ()
  | v ->
      Alcotest.failf "expected Worker_protocol_error, got %s"
        (Pool.verdict_to_string v)

let test_pool_heartbeat_determinism () =
  (* The acceptance bar behind --progress: enabling the channel must
     not change a single result byte. *)
  let jobs = List.init 6 (fun i -> i) in
  let run on_progress =
    let cfg = { Pool.default with jobs = 3; timeout = Some 5.0; on_progress } in
    let trace = ref [] in
    ignore
      (Pool.run cfg ~worker:staggered_worker
         ~on_result:(fun i o ->
           let payload =
             match o.Pool.verdict with
             | Pool.Done j -> Json.to_string j
             | v -> Pool.verdict_to_string v
           in
           trace := (i, payload) :: !trace)
         jobs);
    List.rev !trace
  in
  let quiet = run None and chatty = run (Some (fun _ -> ())) in
  check_bool "identical commit traces with and without progress" true
    (quiet = chatty)

(* ------------------------------------------------------------------ *)
(* Half-written frames: a peer that dies or stalls mid-frame must
   surface as a typed error carrying the byte accounting, never as a
   hang or a bare parse failure.                                       *)

let test_ipc_half_frame () =
  (* EOF mid-payload: the header promised more than ever arrived. *)
  let frame = Ipc.encode_frame (Json.Obj [ ("k", Json.String "vvvv") ]) in
  let payload_len = String.length frame - Ipc.header_bytes in
  let r, w = Unix.pipe ~cloexec:false () in
  ignore (Unix.write_substring w frame 0 (Ipc.header_bytes + 3) : int);
  Unix.close w;
  (match Ipc.read_frame r with
  | Error (Ipc.Truncated { expected; got }) ->
      check "promised payload bytes" payload_len expected;
      check "received payload bytes" 3 got
  | Ok _ -> Alcotest.fail "decoded a half-written frame"
  | Error e ->
      Alcotest.failf "expected Truncated, got %s" (Ipc.read_error_to_string e));
  Unix.close r;
  (* EOF mid-header. *)
  let r, w = Unix.pipe ~cloexec:false () in
  ignore (Unix.write_substring w frame 0 4 : int);
  Unix.close w;
  (match Ipc.read_frame r with
  | Error (Ipc.Truncated { expected; got }) ->
      check "header width" Ipc.header_bytes expected;
      check "header bytes received" 4 got
  | Ok _ -> Alcotest.fail "decoded a half-written header"
  | Error e ->
      Alcotest.failf "expected Truncated, got %s" (Ipc.read_error_to_string e));
  Unix.close r

let test_ipc_read_deadline () =
  (* The writer stays alive but never finishes the frame — the
     slow-loris shape.  Only the deadline can end this read. *)
  let frame = Ipc.encode_frame (Json.Obj [ ("k", Json.Int 1) ]) in
  let payload_len = String.length frame - Ipc.header_bytes in
  let r, w = Unix.pipe ~cloexec:false () in
  ignore (Unix.write_substring w frame 0 (Ipc.header_bytes + 2) : int);
  (match Ipc.read_frame ~deadline:(Unix.gettimeofday () +. 0.1) r with
  | Error (Ipc.Timed_out { expected; got }) ->
      check "promised payload bytes" payload_len expected;
      check "received payload bytes" 2 got
  | Ok _ -> Alcotest.fail "decoded a stalled frame"
  | Error e ->
      Alcotest.failf "expected Timed_out, got %s" (Ipc.read_error_to_string e));
  Unix.close w;
  Unix.close r;
  (* A complete frame under a generous deadline still reads fine (on a
     fresh pipe: a timed-out read has already consumed its bytes). *)
  let r, w = Unix.pipe ~cloexec:false () in
  Ipc.write_frame w (Json.Obj [ ("k", Json.Int 1) ]);
  (match Ipc.read_frame ~deadline:(Unix.gettimeofday () +. 5.) r with
  | Ok (Json.Obj [ ("k", Json.Int 1) ]) -> ()
  | Ok _ -> Alcotest.fail "wrong frame"
  | Error e -> Alcotest.fail (Ipc.read_error_to_string e));
  Unix.close w;
  Unix.close r

(* ------------------------------------------------------------------ *)
(* Server fault kinds                                                  *)

let test_fault_server_kinds () =
  (match Fault.parse "drop:1,truncate:2:1,slow:3" with
  | Error m -> Alcotest.fail m
  | Ok faults ->
      check_string "roundtrip" "drop:1,truncate:2:1,slow:3"
        (String.concat "," (List.map Fault.to_string faults));
      check_bool "all server kinds" true
        (List.for_all
           (fun f -> not (Fault.is_worker_kind f.Fault.kind))
           faults));
  check_bool "worker kinds" true
    (List.for_all Fault.is_worker_kind [ Fault.Hang; Fault.Abort; Fault.Garbage ])

(* ------------------------------------------------------------------ *)
(* Streaming handle                                                    *)

let test_streaming_unordered () =
  let commits = ref [] in
  let pool =
    Pool.create ~ordered:false
      { Pool.default with jobs = 2 }
      ~worker:(fun i () ->
        if i = 0 then Unix.sleepf 0.4;
        Ok (Json.Int i))
      ~on_commit:(fun id o -> commits := (id, o.Pool.verdict) :: !commits)
      ()
  in
  ignore (Pool.submit pool () : int);
  ignore (Pool.submit pool () : int);
  check "both unfinished" 2 (Pool.unfinished pool);
  while Pool.unfinished pool > 0 do
    Pool.step pool
  done;
  let commits = List.rev !commits in
  check "both committed" 2 (List.length commits);
  (* job 1 is instant, job 0 sleeps: unordered commit must release the
     fast job's reply without waiting for the slow one *)
  check "fast job committed first" 1 (fst (List.hd commits));
  check_bool "no descriptors left" true (Pool.watch_fds pool = []);
  match (Pool.outcome pool 0, Pool.outcome pool 1) with
  | ( Some { Pool.verdict = Pool.Done (Json.Int 0); _ },
      Some { Pool.verdict = Pool.Done (Json.Int 1); _ } ) ->
      ()
  | _ -> Alcotest.fail "outcomes not queryable after commit"

let test_streaming_abandon () =
  let commits = ref 0 in
  let pool =
    Pool.create
      { Pool.default with jobs = 1 }
      ~worker:(fun _ () ->
        Unix.sleepf 60.;
        Ok Json.Null)
      ~on_commit:(fun _ _ -> incr commits)
      ()
  in
  ignore (Pool.submit pool () : int);
  ignore (Pool.submit pool () : int);
  Pool.step ~max_wait:0. pool;
  check "one in flight, one queued" 1 (Pool.running pool);
  Pool.abandon pool;
  check "cancellation commits nothing" 0 !commits;
  check "nothing unfinished" 0 (Pool.unfinished pool);
  List.iter
    (fun id ->
      match Pool.outcome pool id with
      | Some { Pool.verdict = Pool.Engine_failure Budget.Cancelled; _ } -> ()
      | _ -> Alcotest.failf "job %d not reported cancelled" id)
    [ 0; 1 ]

let () =
  Alcotest.run "dmc_runtime"
    [
      ( "ipc",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipc_roundtrip;
          Alcotest.test_case "pipe" `Quick test_ipc_pipe;
          Alcotest.test_case "error taxonomy" `Quick test_ipc_errors;
          Alcotest.test_case "half-written frame" `Quick test_ipc_half_frame;
          Alcotest.test_case "read deadline" `Quick test_ipc_read_deadline;
        ] );
      ( "fault",
        [
          Alcotest.test_case "parse" `Quick test_fault_parse;
          Alcotest.test_case "applies" `Quick test_fault_applies;
          Alcotest.test_case "server kinds" `Quick test_fault_server_kinds;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "unordered commit" `Quick test_streaming_unordered;
          Alcotest.test_case "abandon cancels uncommitted" `Quick
            test_streaming_abandon;
        ] );
      ( "backoff",
        [ Alcotest.test_case "deterministic capped jitter" `Quick test_backoff ] );
      ( "verdicts",
        [
          Alcotest.test_case "done" `Quick test_verdict_ok;
          Alcotest.test_case "hang -> timed-out" `Quick test_verdict_timed_out;
          Alcotest.test_case "abort -> crashed" `Quick test_verdict_crashed;
          Alcotest.test_case "garbage -> protocol error" `Quick
            test_verdict_protocol_error;
          Alcotest.test_case "engine failure is final" `Quick
            test_verdict_engine_failure;
          Alcotest.test_case "worker exception -> internal" `Quick
            test_verdict_worker_exception;
          Alcotest.test_case "failure mapping" `Quick test_verdict_failure_mapping;
        ] );
      ( "retry",
        [
          Alcotest.test_case "recovers after transient fault" `Quick
            test_retry_recovers;
          Alcotest.test_case "exhausts and reports" `Quick test_retry_exhausts;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "commit order jobs=4 vs jobs=1" `Quick
            test_order_determinism;
          Alcotest.test_case "crash isolation" `Quick test_isolation;
          Alcotest.test_case "hard-stop accounting" `Quick test_stop_accounting;
          Alcotest.test_case "backend choice" `Quick test_backend_choice;
        ] );
      ( "run checkpoint",
        [
          Alcotest.test_case "prefix resumes, in-process" `Quick
            (test_checkpoint_resume in_process);
          Alcotest.test_case "prefix resumes, pooled" `Quick
            (test_checkpoint_resume pooled);
          Alcotest.test_case "foreign refused, in-process" `Quick
            (test_checkpoint_refusals in_process);
          Alcotest.test_case "foreign refused, pooled" `Quick
            (test_checkpoint_refusals pooled);
          Alcotest.test_case "binaries resume a prefix" `Slow
            test_binary_resume;
          Alcotest.test_case "fuzz refuses another grid" `Quick
            test_binary_refusal;
        ] );
      ( "progress",
        [
          Alcotest.test_case "render fragments" `Quick test_progress_render;
          Alcotest.test_case "own RSS readable" `Quick test_progress_rss;
          Alcotest.test_case "heartbeats deliver snapshots" `Quick
            test_pool_heartbeats;
          Alcotest.test_case "garbage still a protocol error" `Quick
            test_pool_heartbeats_with_fault;
          Alcotest.test_case "channel does not change results" `Quick
            test_pool_heartbeat_determinism;
        ] );
    ]
