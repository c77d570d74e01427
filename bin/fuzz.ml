(* dmc-fuzz: randomized cross-validation soak tool.

   Generates random CDAGs across several families and, for each,
   cross-checks every engine against every other:

     1. every lower bound <= the exhaustive RBW optimum (small graphs);
     2. the optimum <= every strategy's measured I/O;
     3. RB optimum <= RBW optimum;
     4. every schedule (Belady, LRU, DFS order) replays cleanly;
     5. the Theorem-1 partition of each game validates with
        q >= S(h-1);
     6. the LRU simulator's traffic dominates the certified bound;
     7. serialization round-trips;
     8. the three-level hierarchical game validates with both
        boundaries above their sequential bounds.

   Usage:
     dune exec bin/fuzz.exe -- [cases] [seed]
         [--timeout SECS] [--checkpoint FILE] [--resume FILE] [--no-checkpoint]

   Case seeds are drawn from [seed] up front, and every case's result
   is checkpointed as it commits (default file: dmc-fuzz.ckpt.json,
   atomically replaced).  A killed run resumes with the same cases and
   seed plus --resume FILE: the committed cases are replayed, so the
   resumed run prints exactly what an uninterrupted one prints.  Every
   violation additionally persists a reproducer file
   (dmc-fuzz-repro-caseN.json) recording the family, seeds, S and the
   failed check.  --timeout stops cleanly between cases (exit 0),
   leaving the checkpoint behind; violations exit 1 as before. *)

module Cdag = Dmc_cdag.Cdag
module Rng = Dmc_util.Rng
module Strategy = Dmc_core.Strategy
module J = Dmc_util.Json

let max_indeg g =
  Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0

let families =
  [|
    ( "layered-4x4",
      fun rng -> Dmc_gen.Random_dag.layered rng ~layers:4 ~width:4 ~edge_prob:0.4 );
    ( "layered-3x5",
      fun rng -> Dmc_gen.Random_dag.layered rng ~layers:3 ~width:5 ~edge_prob:0.6 );
    ( "gnp",
      fun rng -> Dmc_gen.Random_dag.gnp rng ~n:(7 + Rng.int rng 6) ~edge_prob:0.3 );
    ( "connected",
      fun rng ->
        Dmc_gen.Random_dag.connected_dag rng ~n:(6 + Rng.int rng 8)
          ~extra_edges:(Rng.int rng 8) );
    ( "jacobi1d",
      fun rng ->
        let n = 3 + Rng.int rng 4 in
        let steps = 1 + Rng.int rng 3 in
        Dmc_gen.Workload.build_exn "jacobi1d" [ n; steps ] );
  |]

exception Violation of string

let require label ok = if not ok then raise (Violation label)

let one_case rng g ~s =
  let n = Cdag.n_vertices g in

  (* 7: serialization round-trip *)
  (match Dmc_cdag.Serialize.of_string (Dmc_cdag.Serialize.to_string g) with
  | Ok g2 -> require "serialize" (Dmc_cdag.Serialize.equal_structure g g2)
  | Error m -> raise (Violation ("serialize: " ^ m)));

  (* 4: schedules replay *)
  let check_schedule label order policy =
    match Dmc_core.Rbw_game.run g ~s (Strategy.schedule ~policy ?order g ~s) with
    | Ok stats -> stats.Dmc_core.Rbw_game.io
    | Error e -> raise (Violation (Printf.sprintf "%s: %s" label e.reason))
  in
  let belady = check_schedule "belady" None Strategy.Belady in
  let lru = check_schedule "lru" None Strategy.Lru in
  let dfs = check_schedule "dfs" (Some (Strategy.dfs_order g)) Strategy.Belady in

  (* 1-3: bound soundness against the optimum *)
  let report = Dmc_core.Bounds.analyze g ~s in
  (* Inputs nobody consumes still cost one load in a complete RBW game
     (the white-pebble rule), but they never cross an inner hierarchy
     boundary and the LRU simulator never touches them: correct the
     dominance checks by their count. *)
  let unused_inputs =
    List.length
      (List.filter (fun v -> Cdag.out_degree g v = 0) (Cdag.inputs g))
  in
  require "floor <= wavefront consistency" (report.best_lb >= report.io_floor);
  (if n <= 14 then
     match Dmc_core.Optimal.rbw_io g ~s with
     | opt ->
         require "lb <= optimal" (report.best_lb <= opt);
         require "optimal <= belady" (opt <= belady);
         require "optimal <= lru" (opt <= lru);
         require "optimal <= dfs" (opt <= dfs);
         (* The governed ladder must agree with the raising engines. *)
         (match Dmc_core.Bounds.Engine.rbw_io g ~s with
         | Ok opt' -> require "engine rbw = rbw" (opt' = opt)
         | Error e ->
             raise
               (Violation
                  ("engine rbw errored: " ^ Dmc_util.Budget.failure_to_string e)));
         if n <= 12 && Dmc_cdag.Validate.is_hong_kung g then
           require "rb <= rbw" (Dmc_core.Optimal.rb_io g ~s <= opt)
     | exception Dmc_core.Optimal.Too_large _ -> ());

  (* governed analysis: always completes and stays sound *)
  let gov = Dmc_core.Bounds.analyze_governed g ~s in
  require "governed lb sound" (gov.Dmc_core.Bounds.gov_best_lb <= belady);
  require "governed lb >= floor"
    (gov.Dmc_core.Bounds.gov_best_lb >= report.io_floor);
  (match gov.Dmc_core.Bounds.gov_best_ub with
  | Some ub -> require "governed ub >= lb" (ub >= gov.Dmc_core.Bounds.gov_best_lb)
  | None -> raise (Violation "governed ub missing for feasible S"));

  (* 5: Theorem-1 partition of the Belady game *)
  let moves = Strategy.schedule g ~s in
  let io = Dmc_core.Rbw_game.io_of g ~s moves in
  let color = Dmc_core.Spartition.of_game g ~s moves in
  let h = 1 + Array.fold_left max (-1) color in
  (match Dmc_core.Spartition.check g ~s:(2 * s) ~color with
  | Ok _ -> ()
  | Error m -> raise (Violation ("theorem1 partition: " ^ m)));
  require "theorem1 arithmetic" (io >= s * (h - 1));

  (* 6: simulator dominance *)
  let sim =
    Dmc_sim.Exec.run g
      ~order:(Strategy.default_order g)
      (Dmc_sim.Exec.sequential ~capacities:[| s; 8 * n |])
  in
  require "simulator dominates lb"
    (sim.vertical.(0).(0) + unused_inputs >= report.best_lb);

  (* 8: hierarchical game *)
  let s2 = s + 2 + Rng.int rng 8 in
  let hier_moves = Strategy.hierarchical g ~s1:s ~s2 in
  let hier = Strategy.hierarchical_hierarchy ~s1:s ~s2 in
  (match Dmc_core.Prbw_game.run hier g hier_moves with
  | Ok stats ->
      require "hier regs boundary"
        (Dmc_core.Prbw_game.boundary_traffic stats ~level:2 + unused_inputs
        >= Dmc_core.Wavefront.lower_bound g ~s);
      require "hier mem boundary"
        (Dmc_core.Prbw_game.boundary_traffic stats ~level:3 + unused_inputs
        >= Dmc_core.Wavefront.lower_bound g ~s:s2)
  | Error e -> raise (Violation ("hierarchical: " ^ e.reason)));
  n

(* ------------------------------------------------------------------ *)
(* Driver: argument parsing, checkpointing, reproducers.              *)

(* Everything a case does is a pure function of its seed, so the same
   entry point serves the sequential loop and the forked pool workers
   — the parallel run visits exactly the case stream a sequential run
   would. *)
let run_case ~case_seed =
  let rng = Rng.create case_seed in
  let family = ref "?" in
  let s_used = ref None in
  let n_built = ref None in
  match
    let fname, gen = families.(Rng.int rng (Array.length families)) in
    family := fname;
    let g = gen rng in
    n_built := Some (Cdag.n_vertices g);
    let s = max_indeg g + 1 + Rng.int rng 4 in
    s_used := Some s;
    one_case rng g ~s
  with
  | n -> Ok n
  | exception Violation msg ->
      Error ("violation", msg, !family, !s_used, !n_built)
  | exception e ->
      Error ("exception", Printexc.to_string e, !family, !s_used, !n_built)

let usage =
  "usage: fuzz [cases] [seed] [--timeout SECS] [--checkpoint FILE] \
   [--resume FILE] [--no-checkpoint] [--jobs N] [--job-timeout SECS] \
   [--retries N] [--fault SPEC] [--profile] [--trace FILE] [--progress]"

let die msg =
  prerr_endline ("fuzz: " ^ msg);
  prerr_endline usage;
  exit 2

let write_repro ~case ~seed ~case_seed ~family ~s ~n ~check msg =
  let path = Printf.sprintf "dmc-fuzz-repro-case%d.json" case in
  Dmc_util.Checkpoint.write path
    (J.Obj
       [
         ("kind", J.String "dmc-fuzz-repro");
         ("case", J.Int case);
         ("seed", J.Int seed);
         ("case_seed", J.Int case_seed);
         ("family", J.String family);
         ("s", J.opt (fun s -> J.Int s) s);
         ("n_vertices", J.opt (fun n -> J.Int n) n);
         ("check", J.String check);
         ("failure", J.String msg);
       ]);
  path

let () =
  let timeout = ref None in
  let ckpt_path = ref `Default in
  let resume = ref None in
  let jobs = ref 1 in
  let job_timeout = ref None in
  let retries = ref 0 in
  let fault = ref None in
  let profile = ref false in
  let trace = ref None in
  let progress = ref false in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--timeout" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t -> timeout := Some t
        | None -> die ("bad --timeout value: " ^ v));
        parse rest
    | "--checkpoint" :: v :: rest ->
        ckpt_path := `Path v;
        parse rest
    | "--no-checkpoint" :: rest ->
        ckpt_path := `Off;
        parse rest
    | "--resume" :: v :: rest ->
        resume := Some v;
        parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> jobs := n
        | _ -> die ("bad --jobs value: " ^ v));
        parse rest
    | "--job-timeout" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t -> job_timeout := Some t
        | None -> die ("bad --job-timeout value: " ^ v));
        parse rest
    | "--retries" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 0 -> retries := n
        | _ -> die ("bad --retries value: " ^ v));
        parse rest
    | "--fault" :: v :: rest ->
        fault := Some (Option.fold ~none:v ~some:(fun f -> f ^ "," ^ v) !fault);
        parse rest
    | "--profile" :: rest ->
        profile := true;
        parse rest
    | "--trace" :: v :: rest ->
        trace := Some v;
        parse rest
    | "--progress" :: rest ->
        progress := true;
        parse rest
    | arg :: _ when String.length arg >= 2 && String.sub arg 0 2 = "--" ->
        die ("unknown option " ^ arg)
    | arg :: rest ->
        positional := arg :: !positional;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let observed = !profile || !trace <> None in
  if observed then Dmc_obs.Registry.set_enabled true;
  let faults = try Dmc_runtime.Run.faults !fault with Failure msg -> die msg in
  let settings =
    {
      Dmc_runtime.Run.default with
      jobs = !jobs;
      job_timeout = !job_timeout;
      retries = !retries;
      faults;
      progress = !progress;
      observed;
    }
  in
  let pos_int what v =
    match int_of_string_opt v with Some i -> i | None -> die ("bad " ^ what ^ ": " ^ v)
  in
  let cases, seed =
    match List.rev !positional with
    | [] -> (200, 20140418)
    | [ c ] -> (pos_int "case count" c, 20140418)
    | [ c; s ] -> (pos_int "case count" c, pos_int "seed" s)
    | _ -> die "too many positional arguments"
  in
  (* Without --checkpoint, a resumed run keeps checkpointing to the
     file it resumed from. *)
  let ckpt_path =
    match (!ckpt_path, !resume) with
    | `Path p, _ -> Some p
    | `Off, _ -> None
    | `Default, Some p -> Some p
    | `Default, None -> Some "dmc-fuzz.ckpt.json"
  in
  (* The first SIGINT/SIGTERM stops dispatching, reaps any workers,
     keeps the last checkpoint and exits with a distinct code; a second
     one exits immediately. *)
  Dmc_runtime.Run.install_interrupt_handlers ();
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) !timeout in
  let total_vertices = ref 0 in
  let failures = ref 0 in
  let record ~case ~case_seed ~family ~s ~n check msg =
    incr failures;
    let repro = write_repro ~case ~seed ~case_seed ~family ~s ~n ~check msg in
    Printf.printf "VIOLATION in case %d (seed %d): %s [reproducer: %s]\n%!"
      case case_seed msg repro
  in
  (* One job per case, committed in case order.  The case seeds are a
     pure function of [seed], so a resumed run re-derives them. *)
  let module Pool = Dmc_runtime.Pool in
  let master = Rng.create seed in
  let case_seeds = Array.init (max 0 cases) (fun _ -> Rng.next master) in
  let worker _ case_seed =
    match run_case ~case_seed with
    | Ok n -> Ok (J.Obj [ ("n", J.Int n) ])
    | Error (check, msg, family, s, n) ->
        Ok
          (J.Obj
             [
               ("check", J.String check);
               ("msg", J.String msg);
               ("family", J.String family);
               ("s", J.opt (fun v -> J.Int v) s);
               ("n", J.opt (fun v -> J.Int v) n);
             ])
  in
  (* A case's payload is all its commit needs, so the replay of a
     committed case prints and counts it again. *)
  let on_result k outcome =
    let payload =
      match outcome.Pool.verdict with
      | Pool.Done payload -> payload
      | v ->
          (* A lost worker persisted nothing, so the coordinator
             records it: case index + seeds are enough to replay the
             case deterministically. *)
          J.Obj
            [
              ("check", J.String "worker");
              ("msg", J.String (Pool.verdict_to_string v));
            ]
    in
    let field f conv = Option.bind (J.mem payload f) conv in
    let str f = Option.value ~default:"?" (field f J.as_string) in
    let record = record ~case:(k + 1) ~case_seed:case_seeds.(k) in
    (match (field "check" J.as_string, field "n" J.as_int) with
    | Some check, _ ->
        record ~family:(str "family") ~s:(field "s" J.as_int)
          ~n:(field "n" J.as_int) check (str "msg")
    | None, Some n -> total_vertices := !total_vertices + n
    | None, None ->
        record ~family:"?" ~s:None ~n:None "worker-protocol"
          "result frame lacks n");
    payload
  in
  let checkpoint =
    {
      Dmc_runtime.Run.path = ckpt_path;
      resume = !resume;
      kind = "dmc-fuzz";
      signature = J.Obj [ ("cases", J.Int cases); ("seed", J.Int seed) ];
    }
  in
  let cancelled =
    Dmc_runtime.Run.cancelled
      (try
         Dmc_runtime.Run.batch ?deadline ~checkpoint settings ~worker
           ~on_result (Array.to_list case_seeds)
       with Failure msg -> die msg)
  in
  (match !trace with
  | Some path -> Dmc_obs.Export.write_chrome_trace path
  | None -> ());
  if !profile then print_string (Dmc_obs.Export.profile ());
  let hint = Dmc_runtime.Run.resume_hint ckpt_path in
  (match Dmc_runtime.Run.interrupted () with
  | Some _ ->
      Printf.printf "fuzz: interrupted after %d/%d cases%s\n" (cases - cancelled)
        cases hint
  | None when cancelled > 0 ->
      Printf.printf "fuzz: timeout after %d/%d cases%s\n" (cases - cancelled)
        cases hint
  | None ->
      Printf.printf "fuzz: %d cases, %d vertices total, %d violation(s)\n" cases
        !total_vertices !failures);
  if Stdlib.( > ) !failures 0 then exit 1;
  Option.iter exit (Dmc_runtime.Run.interrupted ())
