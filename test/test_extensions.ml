(* Tests for the extension modules: the lines bound, game traces, the
   DFS scheduling order, and the architectural scaling sweeps. *)

module Cdag = Dmc_cdag.Cdag
module Lines = Dmc_core.Lines
module Trace = Dmc_core.Trace
module Strategy = Dmc_core.Strategy
module Rng = Dmc_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Lines                                                               *)

let test_lines_formulas () =
  check_float "bound" 10.0 (Lines.bound ~line_vertices:100 ~f_inverse_2s:4);
  (* d=2: 2 sqrt(2S) - 1 *)
  check_float "f inverse 2d" ((2.0 *. sqrt 16.0) -. 1.0) (Lines.jacobi_f_inverse ~d:2 ~s:8);
  (* the lines route reproduces the Theorem-10 closed form *)
  let via_lines = Lines.jacobi_bound ~d:2 ~n:8 ~steps:4 ~s:8 in
  let closed = Dmc_core.Analytic.jacobi_lb ~d:2 ~n:8 ~steps:4 ~s:8 ~p:1 in
  check_float "matches Theorem 10" closed via_lines

let test_disjoint_lines_stencil () =
  (* every grid point carries its own line: n^d disjoint input-output
     paths *)
  let st = Dmc_gen.Stencil.jacobi_2d ~shape:Dmc_gen.Stencil.Star ~n:4 ~steps:3 () in
  check "stencil lines" 16 (Lines.max_disjoint_lines st.Dmc_gen.Stencil.graph);
  let st1 = Dmc_gen.Stencil.jacobi_1d ~n:7 ~steps:2 in
  check "1d lines" 7 (Lines.max_disjoint_lines st1.Dmc_gen.Stencil.graph);
  (* a reduction tree has only one output: a single line *)
  check "tree lines" 1 (Lines.max_disjoint_lines (Dmc_gen.Shapes.reduction_tree 8));
  (* FFT: n inputs, n outputs, permutation routing: n lines *)
  check "fft lines" 8 (Lines.max_disjoint_lines (Dmc_gen.Fft.butterfly 3))

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_trace_summary () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  let s = 3 in
  let moves = Strategy.schedule g ~s in
  let summary = Trace.summarize moves in
  let stats =
    match Dmc_core.Rbw_game.run g ~s moves with
    | Ok st -> st
    | Error e -> Alcotest.fail e.Dmc_core.Rbw_game.reason
  in
  check "io agrees with engine" stats.Dmc_core.Rbw_game.io summary.Trace.io;
  check "loads agree" stats.Dmc_core.Rbw_game.loads summary.Trace.loads;
  check "computes agree" stats.Dmc_core.Rbw_game.computes summary.Trace.computes;
  check_bool "reload accounting" true
    (summary.Trace.loads = summary.Trace.distinct_loaded + summary.Trace.reloads)

let test_trace_timelines () =
  let moves =
    Dmc_core.Rbw_game.[ Load 0; Compute 1; Store 1; Delete 0; Delete 1 ]
  in
  Alcotest.(check (array int)) "io timeline" [| 1; 1; 2; 2; 2 |] (Trace.io_timeline moves);
  Alcotest.(check (array int)) "live timeline" [| 1; 2; 2; 1; 0 |]
    (Trace.live_timeline moves)

let test_trace_phases () =
  let moves =
    Dmc_core.Rbw_game.[ Load 0; Load 1; Compute 2; Store 2; Load 0; Store 0 ]
  in
  Alcotest.(check (list int)) "phases of 2" [ 2; 2; 1 ] (Trace.phase_io ~s:2 moves);
  Alcotest.(check (list int)) "one phase" [ 5 ] (Trace.phase_io ~s:10 moves)

let test_trace_parse_roundtrip () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  let moves = Strategy.schedule g ~s:3 in
  (match Trace.parse (Trace.to_string moves) with
  | Ok moves' -> check_bool "round trip" true (moves = moves')
  | Error m -> Alcotest.fail m);
  (match Trace.parse "# comment\n\nload 3\ncompute 4\n" with
  | Ok [ Dmc_core.Rbw_game.Load 3; Dmc_core.Rbw_game.Compute 4 ] -> ()
  | _ -> Alcotest.fail "comment/blank handling");
  (match Trace.parse "frobnicate 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad op accepted");
  match Trace.parse "load x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad vertex accepted"

let test_trace_timeline_render () =
  let moves = Dmc_core.Rbw_game.[ Load 0; Compute 1; Store 1; Delete 0; Delete 1 ] in
  let out = Trace.render_timeline ~width:5 moves in
  check_bool "two rows" true (List.length (String.split_on_char '\n' out) >= 2);
  check_bool "reports io" true
    (String.length out > 0
    && String.split_on_char '\n' out |> List.hd |> fun l ->
       String.length l > 0);
  Alcotest.(check string) "empty game" "(empty game)\n" (Trace.render_timeline [])

let test_trace_to_string () =
  let moves = Dmc_core.Rbw_game.[ Load 0; Compute 1 ] in
  let s = Trace.to_string moves in
  check_bool "mentions load" true (String.length s > 0);
  let truncated = Trace.to_string ~limit:1 (moves @ moves) in
  check_bool "ellipsis" true
    (String.length truncated > 0
    && String.contains truncated '.')

(* ------------------------------------------------------------------ *)
(* DFS order                                                           *)

let test_dfs_order_optimal_on_trees () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  let s = 3 in
  let dfs_io = Strategy.io ~order:(Strategy.dfs_order g) g ~s in
  let opt = Dmc_core.Optimal.rbw_io g ~s in
  check "dfs reaches the optimum on a tree" opt dfs_io;
  check_bool "beats breadth-first" true (dfs_io < Strategy.io g ~s)

let prop_dfs_order_valid =
  QCheck.Test.make ~name:"dfs order schedules replay cleanly" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:5 ~width:4 ~edge_prob:0.4 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 2 in
      let moves = Strategy.schedule ~order:(Strategy.dfs_order g) g ~s in
      match Dmc_core.Rbw_game.run g ~s moves with Ok _ -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Hierarchical (3-level) strategy                                     *)

let test_hierarchical_valid_and_bounded () =
  let st = Dmc_gen.Stencil.jacobi_1d ~n:24 ~steps:6 in
  let g = st.Dmc_gen.Stencil.graph in
  let s1 = 6 and s2 = 20 in
  let moves = Strategy.hierarchical g ~s1 ~s2 in
  let hier = Strategy.hierarchical_hierarchy ~s1 ~s2 in
  match Dmc_core.Prbw_game.run hier g moves with
  | Error e -> Alcotest.fail e.Dmc_core.Prbw_game.reason
  | Ok stats ->
      let b2 = Dmc_core.Prbw_game.boundary_traffic stats ~level:2 in
      let b3 = Dmc_core.Prbw_game.boundary_traffic stats ~level:3 in
      (* the register boundary sees at least the cache boundary's data *)
      check_bool "inner boundary carries more" true (b2 >= b3);
      (* each boundary's traffic dominates the sequential lower bound
         with the inner capacity (Theorem 5 with N_l = 1) *)
      check_bool "regs boundary vs LB(S1)" true
        (b2 >= Dmc_core.Wavefront.lower_bound g ~s:s1);
      check_bool "cache boundary vs LB(S2)" true
        (b3 >= Dmc_core.Wavefront.lower_bound g ~s:s2);
      (* every input read once, every output written once *)
      check "loads = inputs" (Cdag.n_inputs g) stats.Dmc_core.Prbw_game.loads;
      check "stores = outputs" (List.length (Cdag.outputs g)) stats.Dmc_core.Prbw_game.stores

let test_hierarchical_large_cache_collapses () =
  (* with a cache as large as the graph, the memory boundary sees only
     the compulsory input/output traffic *)
  let g = Dmc_gen.Shapes.reduction_tree 16 in
  let moves = Strategy.hierarchical g ~s1:4 ~s2:100 in
  let hier = Strategy.hierarchical_hierarchy ~s1:4 ~s2:100 in
  match Dmc_core.Prbw_game.run hier g moves with
  | Error e -> Alcotest.fail e.Dmc_core.Prbw_game.reason
  | Ok stats ->
      check "memory boundary = in + out" (16 + 1)
        (Dmc_core.Prbw_game.boundary_traffic stats ~level:3)

let prop_hierarchical_valid =
  QCheck.Test.make ~name:"hierarchical games replay cleanly" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:5 ~width:4 ~edge_prob:0.4 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s1 = max_indeg + 1 + Rng.int rng 3 in
      let s2 = s1 + 2 + Rng.int rng 6 in
      let moves = Strategy.hierarchical g ~s1 ~s2 in
      let hier = Strategy.hierarchical_hierarchy ~s1 ~s2 in
      match Dmc_core.Prbw_game.run hier g moves with
      | Ok _ -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Theorem 2 against the exhaustive optimum                            *)

let prop_theorem2_vs_optimal =
  QCheck.Test.make ~name:"sum of per-part optima below the whole optimum" ~count:15
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.gnp rng ~n:9 ~edge_prob:0.3 in
      let n = Cdag.n_vertices g in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 1 in
      let color = Array.init n (fun _ -> Rng.int rng 2) in
      let parts = Dmc_cdag.Subgraph.partition g color in
      let part_sum =
        Array.fold_left
          (fun acc (p : Dmc_cdag.Subgraph.part) ->
            if Cdag.n_vertices p.Dmc_cdag.Subgraph.graph = 0 then acc
            else acc + Dmc_core.Optimal.rbw_io p.Dmc_cdag.Subgraph.graph ~s)
          0 parts
      in
      part_sum <= Dmc_core.Optimal.rbw_io g ~s)

(* ------------------------------------------------------------------ *)
(* Scaling                                                             *)

let test_scaling_cg () =
  let crossover =
    Dmc_analysis.Scaling.cg_network_bound_at ~balance:0.049 ()
  in
  (* (0.049 * 20000 / 6)^3 *)
  check_float "crossover closed form" ((0.049 *. 20000.0 /. 6.0) ** 3.0) crossover;
  let points = Dmc_analysis.Scaling.cg_node_sweep ~node_counts:[ 2048; 100_000_000 ] () in
  (match points with
  | [ small; huge ] ->
      check_bool "2048 nodes unbound" true (small.Dmc_analysis.Scaling.network_bound_on = []);
      check_bool "10^8 nodes bound" true (huge.Dmc_analysis.Scaling.network_bound_on <> [])
  | _ -> Alcotest.fail "expected two points")

let test_scaling_jacobi_cache () =
  let points =
    Dmc_analysis.Scaling.jacobi_cache_sweep ~cache_mwords:[ 1.0; 64.0 ] ()
  in
  match points with
  | [ small; big ] ->
      check_bool "bigger cache raises max dim" true
        (big.Dmc_analysis.Scaling.max_dim_paper > small.Dmc_analysis.Scaling.max_dim_paper);
      check_bool "bigger cache lowers the floor" true
        (big.Dmc_analysis.Scaling.threshold_3d < small.Dmc_analysis.Scaling.threshold_3d)
  | _ -> Alcotest.fail "expected two points"

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_extensions"
    [
      ( "lines",
        [
          Alcotest.test_case "formulas" `Quick test_lines_formulas;
          Alcotest.test_case "disjoint lines" `Quick test_disjoint_lines_stencil;
        ] );
      ( "trace",
        [
          Alcotest.test_case "summary" `Quick test_trace_summary;
          Alcotest.test_case "timelines" `Quick test_trace_timelines;
          Alcotest.test_case "phases" `Quick test_trace_phases;
          Alcotest.test_case "to_string" `Quick test_trace_to_string;
          Alcotest.test_case "timeline render" `Quick test_trace_timeline_render;
          Alcotest.test_case "parse roundtrip" `Quick test_trace_parse_roundtrip;
        ] );
      ( "dfs",
        [ Alcotest.test_case "optimal on trees" `Quick test_dfs_order_optimal_on_trees ] );
      qsuite "dfs-props" [ prop_dfs_order_valid ];
      ( "hierarchical",
        [
          Alcotest.test_case "valid and bounded" `Quick test_hierarchical_valid_and_bounded;
          Alcotest.test_case "large cache collapses" `Quick test_hierarchical_large_cache_collapses;
        ] );
      qsuite "hierarchical-props" [ prop_hierarchical_valid ];
      qsuite "theorem2-props" [ prop_theorem2_vs_optimal ];
      ( "scaling",
        [
          Alcotest.test_case "cg crossover" `Quick test_scaling_cg;
          Alcotest.test_case "jacobi cache sweep" `Quick test_scaling_jacobi_cache;
        ] );
    ]
