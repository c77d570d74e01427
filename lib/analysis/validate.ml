module Table = Dmc_util.Table
module Rng = Dmc_util.Rng
module Cdag = Dmc_cdag.Cdag
module Bounds = Dmc_core.Bounds
module Strategy = Dmc_core.Strategy

type case = {
  name : string;
  n_vertices : int;
  s : int;
  best_lb : int;
  optimal : int option;
  belady : int;
  rb_optimal : int option;
  sound : bool;
}

let fixtures ?(seed = 42) ?(cases = 8) () =
  let rng = Rng.create seed in
  let fixed =
    [
      ("chain8", Dmc_gen.Shapes.chain 8);
      ("tree8", Dmc_gen.Shapes.reduction_tree 8);
      ("diamond3x3", Dmc_gen.Shapes.diamond ~rows:3 ~cols:3);
      ("diamond4x4", Dmc_gen.Shapes.diamond ~rows:4 ~cols:4);
      ("fft4", Dmc_gen.Fft.butterfly 2);
      ("pyramid4", Dmc_gen.Shapes.pyramid 4);
      ("binomial3", Dmc_gen.Shapes.binomial 3);
      ("fanin3x3", Dmc_gen.Shapes.two_level_fanin ~fanin:3 ~mids:3);
      ("outer3", Dmc_gen.Linalg.outer_product 3);
      ("dot5", Dmc_gen.Linalg.dot_product 5);
      ("jacobi1d-4x2", (Dmc_gen.Stencil.jacobi_1d ~n:4 ~steps:2).graph);
    ]
  in
  let random =
    List.init cases (fun i ->
        let g =
          if i mod 2 = 0 then
            Dmc_gen.Random_dag.layered rng ~layers:4 ~width:4 ~edge_prob:0.45
          else Dmc_gen.Random_dag.gnp rng ~n:(8 + Rng.int rng 6) ~edge_prob:0.25
        in
        (Printf.sprintf "random%d" i, g))
  in
  fixed @ random

let analyze_case name g s =
  let report = Bounds.analyze g ~s in
  (* The result-typed engines turn state-space blow-up (or any other
     failure) into [Error], which this table renders as "-". *)
  let optimal =
    if Cdag.n_vertices g <= 18 then Result.to_option (Bounds.Engine.rbw_io g ~s)
    else None
  in
  let rb_optimal =
    if Cdag.n_vertices g <= 15 && Dmc_cdag.Validate.is_hong_kung g then
      Result.to_option (Bounds.Engine.rb_io g ~s)
    else None
  in
  let sound =
    (match optimal with
    | Some opt ->
        report.best_lb <= opt && opt <= report.belady_ub
        && (match rb_optimal with Some rb -> rb <= opt | None -> true)
    | None -> report.best_lb <= report.belady_ub)
  in
  {
    name;
    n_vertices = Cdag.n_vertices g;
    s;
    best_lb = report.best_lb;
    optimal;
    belady = report.belady_ub;
    rb_optimal;
    sound;
  }

let soundness_suite ?seed ?cases () =
  List.concat_map
    (fun (name, g) ->
      List.filter_map
        (fun s ->
          let max_indeg =
            Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
          in
          if s <= max_indeg then None else Some (analyze_case name g s))
        [ 2; 3; 5 ])
    (fixtures ?seed ?cases ())

let soundness_table cases =
  let t =
    Table.create
      ~headers:[ "case"; "|V|"; "S"; "best LB"; "optimal"; "Belady UB"; "RB opt"; "sound" ]
  in
  Table.set_align t
    [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ];
  let opt = function None -> "-" | Some x -> string_of_int x in
  List.iter
    (fun c ->
      Table.add_row t
        [
          c.name;
          string_of_int c.n_vertices;
          string_of_int c.s;
          string_of_int c.best_lb;
          opt c.optimal;
          string_of_int c.belady;
          opt c.rb_optimal;
          (if c.sound then "yes" else "NO");
        ])
    cases;
  t

let all_sound cases = List.for_all (fun c -> c.sound) cases

type theorem1_check = {
  name : string;
  s : int;
  io : int;
  h : int;
  partition_valid : bool;
  arithmetic_holds : bool;
}

let theorem1_suite ?(seed = 7) () =
  let rng = Rng.create seed in
  let graphs =
    [
      ("tree16", Dmc_gen.Shapes.reduction_tree 16);
      ("diamond5x5", Dmc_gen.Shapes.diamond ~rows:5 ~cols:5);
      ("fft8", Dmc_gen.Fft.butterfly 3);
      ("jacobi1d-8x4", (Dmc_gen.Stencil.jacobi_1d ~n:8 ~steps:4).graph);
      ("matmul3", Dmc_gen.Linalg.matmul 3);
      ("layered", Dmc_gen.Random_dag.layered rng ~layers:5 ~width:5 ~edge_prob:0.4);
    ]
  in
  List.concat_map
    (fun (name, g) ->
      List.filter_map
        (fun s ->
          let max_indeg =
            Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
          in
          if s <= max_indeg then None
          else begin
            let moves = Strategy.schedule g ~s in
            let io = Dmc_core.Rbw_game.io_of g ~s moves in
            let color = Dmc_core.Spartition.of_game g ~s moves in
            let h = 1 + Array.fold_left max (-1) color in
            let partition_valid =
              match Dmc_core.Spartition.check g ~s:(2 * s) ~color with
              | Ok _ -> true
              | Error _ -> false
            in
            (* Lemma 1 uses the direction [io >= s*(h-1)]; the other
               direction holds for the uncompacted phase count
               [ceil(io/s)], of which [h] can only be a compaction. *)
            Some
              {
                name;
                s;
                io;
                h;
                partition_valid;
                arithmetic_holds = io >= s * (h - 1) && h <= (io + s - 1) / s;
              }
          end)
        [ 3; 4; 8 ])
    graphs

let theorem1_table checks =
  let t =
    Table.create ~headers:[ "case"; "S"; "I/O"; "h"; "valid 2S-part."; "S*h >= q >= S*(h-1)" ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          c.name;
          string_of_int c.s;
          string_of_int c.io;
          string_of_int c.h;
          (if c.partition_valid then "yes" else "NO");
          (if c.arithmetic_holds then "yes" else "NO");
        ])
    checks;
  t

type sim_check = {
  name : string;
  s : int;
  simulated_io : int;
  game_lb : int;
  holds : bool;
}

let simulator_suite ?(seed = 11) () =
  let rng = Rng.create seed in
  ignore rng;
  let cases =
    [
      ("jacobi1d-16x6", (Dmc_gen.Stencil.jacobi_1d ~n:16 ~steps:6).graph, 6);
      ("jacobi2d-5x3", (Dmc_gen.Stencil.jacobi_2d ~shape:Dmc_gen.Stencil.Star ~n:5 ~steps:3 ()).graph, 8);
      ("tree32", Dmc_gen.Shapes.reduction_tree 32, 4);
      ("matmul4", Dmc_gen.Linalg.matmul 4, 6);
      ("fft8", Dmc_gen.Fft.butterfly 3, 4);
    ]
  in
  List.map
    (fun (name, g, s) ->
      let order = Strategy.default_order g in
      let result =
        Dmc_sim.Exec.run g ~order
          (Dmc_sim.Exec.sequential ~capacities:[| s; 4 * Cdag.n_vertices g |])
      in
      let simulated_io = result.vertical.(0).(0) in
      let report = Bounds.analyze g ~s in
      {
        name;
        s;
        simulated_io;
        game_lb = report.best_lb;
        holds = simulated_io >= report.best_lb;
      })
    cases

type hierarchy_check = {
  name : string;
  s1 : int;
  s2 : int;
  boundary_regs : int;
  boundary_mem : int;
  lb_at_s1 : int;
  lb_at_s2 : int;
  holds : bool;
}

(* Run the three-level scheduler on assorted workloads (every game
   validated by [Prbw_game.run]) and check the measured per-boundary
   traffic against the matching sequential lower bounds. *)
let hierarchy_suite () =
  let cases =
    [
      ("jacobi1d-24x8", (Dmc_gen.Stencil.jacobi_1d ~n:24 ~steps:8).graph, 6, 20);
      ("fft32", Dmc_gen.Fft.butterfly 5, 4, 16);
      ("matmul5", Dmc_gen.Linalg.matmul 5, 8, 32);
      ("tree64", Dmc_gen.Shapes.reduction_tree 64, 3, 12);
      ("cg-3x3x2", (Dmc_gen.Solver.cg ~dims:[ 3; 3 ] ~iters:2).graph, 8, 24);
    ]
  in
  List.map
    (fun (name, g, s1, s2) ->
      let moves = Strategy.hierarchical g ~s1 ~s2 in
      let hier = Strategy.hierarchical_hierarchy ~s1 ~s2 in
      match Dmc_core.Prbw_game.run hier g moves with
      | Error e ->
          failwith
            (Printf.sprintf "hierarchy_suite %s: invalid game at %d: %s" name
               e.Dmc_core.Prbw_game.step e.Dmc_core.Prbw_game.reason)
      | Ok stats ->
          let boundary_regs = Dmc_core.Prbw_game.boundary_traffic stats ~level:2 in
          let boundary_mem = Dmc_core.Prbw_game.boundary_traffic stats ~level:3 in
          let lb_at_s1 = Dmc_core.Wavefront.lower_bound g ~s:s1 in
          let lb_at_s2 = Dmc_core.Wavefront.lower_bound g ~s:s2 in
          {
            name;
            s1;
            s2;
            boundary_regs;
            boundary_mem;
            lb_at_s1;
            lb_at_s2;
            holds =
              boundary_regs >= lb_at_s1 && boundary_mem >= lb_at_s2
              && boundary_regs >= boundary_mem;
          })
    cases

let hierarchy_table checks =
  let t =
    Table.create
      ~headers:
        [ "case"; "S1"; "S2"; "regs<->cache"; "LB(S1)"; "cache<->mem"; "LB(S2)"; "holds" ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [
          c.name;
          string_of_int c.s1;
          string_of_int c.s2;
          string_of_int c.boundary_regs;
          string_of_int c.lb_at_s1;
          string_of_int c.boundary_mem;
          string_of_int c.lb_at_s2;
          (if c.holds then "yes" else "NO");
        ])
    checks;
  t

type matmul_level_row = {
  n : int;
  s1 : int;
  s2 : int;
  regs_traffic : int;
  regs_bound : float;
  cache_traffic : int;
  cache_bound : float;
}

(* Two-level blocked matmul through the three-level scheduler, per
   [(s1, s2)]: measured traffic at both boundaries next to the
   Hong-Kung bound at that capacity (the Theorems 5/6 tightness
   experiment). *)
let matmul_multilevel ?(n = 16) ~configs () =
  let mm = Dmc_gen.Linalg.matmul_indexed n in
  let g = mm.Dmc_gen.Linalg.mm_graph in
  List.map
    (fun (s1, s2) ->
      (* block sides sized so ~3 tiles fit each level *)
      let side cap = max 1 (int_of_float (sqrt (float_of_int cap /. 3.0))) in
      let inner = max 1 (min (side s1) n) in
      let outer = max inner (min (side s2) n) in
      let order = Dmc_gen.Linalg.blocked2_matmul_order mm ~inner ~outer in
      let moves = Strategy.hierarchical ~order g ~s1 ~s2 in
      let hier = Strategy.hierarchical_hierarchy ~s1 ~s2 in
      match Dmc_core.Prbw_game.run hier g moves with
      | Error e ->
          failwith
            (Printf.sprintf "matmul_multilevel: invalid game: %s"
               e.Dmc_core.Prbw_game.reason)
      | Ok stats ->
          {
            n;
            s1;
            s2;
            regs_traffic = Dmc_core.Prbw_game.boundary_traffic stats ~level:2;
            regs_bound = Dmc_core.Analytic.matmul_lb ~n ~s:s1;
            cache_traffic = Dmc_core.Prbw_game.boundary_traffic stats ~level:3;
            cache_bound = Dmc_core.Analytic.matmul_lb ~n ~s:s2;
          })
    configs

let matmul_multilevel_table rows =
  let t =
    Table.create
      ~headers:
        [ "n"; "S1"; "S2"; "regs traffic"; "HK bound(S1)"; "ratio";
          "cache traffic"; "HK bound(S2)"; "ratio" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          string_of_int r.n;
          string_of_int r.s1;
          string_of_int r.s2;
          string_of_int r.regs_traffic;
          Printf.sprintf "%.0f" r.regs_bound;
          Printf.sprintf "%.1fx" (float_of_int r.regs_traffic /. r.regs_bound);
          string_of_int r.cache_traffic;
          Printf.sprintf "%.0f" r.cache_bound;
          Printf.sprintf "%.1fx" (float_of_int r.cache_traffic /. r.cache_bound);
        ])
    rows;
  t

let simulator_table checks =
  let t = Table.create ~headers:[ "case"; "S"; "simulated I/O"; "certified LB"; "LB <= sim" ] in
  List.iter
    (fun (c : sim_check) ->
      Table.add_row t
        [
          c.name;
          string_of_int c.s;
          string_of_int c.simulated_io;
          string_of_int c.game_lb;
          (if c.holds then "yes" else "NO");
        ])
    checks;
  t

(* ------------------------------------------------------------------ *)
(* Experiment parts.  Two experiments live here: "validate" (soundness
   + Theorem 1) and "sim" (simulator cross-check, P-RBW hierarchy,
   multi-level matmul).  Each part pre-renders its table and carries
   the check verdicts as booleans. *)

module J = Dmc_util.Json
module P = Experiment.P

let table_part ~table ~checks () =
  J.Obj
    (("table", Doc.block_to_json (Doc.Table table))
    :: List.map (fun (k, b) -> (k, J.Bool b)) checks)

let validate_parts =
  [
    {
      Experiment.part = "soundness";
      run =
        (fun () ->
          let cases = soundness_suite () in
          table_part ~table:(soundness_table cases)
            ~checks:[ ("sound", all_sound cases) ]
            ());
    };
    {
      Experiment.part = "theorem1";
      run =
        (fun () ->
          let t1 = theorem1_suite () in
          table_part ~table:(theorem1_table t1)
            ~checks:
              [
                ( "ok",
                  List.for_all
                    (fun c -> c.partition_valid && c.arithmetic_holds)
                    t1 );
              ]
            ());
    };
  ]

let validate_doc_of_parts payloads =
  match payloads with
  | [ so; t1 ] ->
      {
        Doc.name = "validate";
        blocks =
          [
            Doc.Section "Validation: lower bounds vs provably optimal games";
            Experiment.block_field so "table";
            Doc.Section "Validation: Theorem 1 (game -> 2S-partition)";
            Experiment.block_field t1 "table";
            Doc.check "every lower bound below the optimum, every strategy above"
              (P.bool so "sound");
            Doc.check
              "every game-derived partition is a valid 2S-partition with S*h >= q >= S*(h-1)"
              (P.bool t1 "ok");
          ];
      }
  | _ -> Experiment.malformed "validate experiment expects 2 part payloads"

let sim_parts =
  [
    {
      Experiment.part = "simulator";
      run =
        (fun () ->
          let checks = simulator_suite () in
          table_part ~table:(simulator_table checks)
            ~checks:[ ("ok", List.for_all (fun (c : sim_check) -> c.holds) checks) ]
            ());
    };
    {
      Experiment.part = "hierarchy";
      run =
        (fun () ->
          let hier = hierarchy_suite () in
          table_part ~table:(hierarchy_table hier)
            ~checks:
              [ ("ok", List.for_all (fun (c : hierarchy_check) -> c.holds) hier) ]
            ());
    };
    {
      Experiment.part = "matmul";
      run =
        (fun () ->
          let mm =
            matmul_multilevel
              ~configs:[ (12, 48); (12, 147); (27, 147); (48, 300) ]
              ()
          in
          table_part ~table:(matmul_multilevel_table mm)
            ~checks:
              [
                ( "dominates",
                  List.for_all
                    (fun r ->
                      float_of_int r.regs_traffic >= r.regs_bound
                      && float_of_int r.cache_traffic >= r.cache_bound)
                    mm );
                ( "within",
                  List.for_all
                    (fun r ->
                      float_of_int r.regs_traffic <= 16.0 *. r.regs_bound
                      && float_of_int r.cache_traffic <= 16.0 *. r.cache_bound)
                    mm );
              ]
            ());
    };
  ]

let sim_doc_of_parts payloads =
  match payloads with
  | [ si; hi; mm ] ->
      {
        Doc.name = "sim";
        blocks =
          [
            Doc.Section
              "Simulator cross-check: LRU hierarchy traffic vs certified bounds";
            Experiment.block_field si "table";
            Doc.Section
              "Three-level P-RBW games: per-boundary traffic vs sequential bounds";
            Experiment.block_field hi "table";
            Doc.Section
              "Multi-level tightness: two-level blocked matmul vs Hong-Kung at each level";
            Experiment.block_field mm "table";
            Doc.check "simulated traffic dominates every certified lower bound"
              (P.bool si "ok");
            Doc.check "every P-RBW boundary dominates its sequential bound"
              (P.bool hi "ok");
            Doc.check "matmul traffic dominates the HK bound at both levels"
              (P.bool mm "dominates");
            Doc.check "matmul traffic within 16x of the HK bound at both levels"
              (P.bool mm "within");
          ];
      }
  | _ -> Experiment.malformed "sim experiment expects 3 part payloads"
