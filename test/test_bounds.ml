(* Tests for the lower-bound engines: S-partitions, wavefronts, the
   decomposition calculus, analytic formulas and parallel bounds. *)

module Cdag = Dmc_cdag.Cdag
module Bitset = Dmc_util.Bitset
module Spartition = Dmc_core.Spartition
module Wavefront = Dmc_core.Wavefront
module Decompose = Dmc_core.Decompose
module Analytic = Dmc_core.Analytic
module Parallel_bounds = Dmc_core.Parallel_bounds
module Bounds = Dmc_core.Bounds
module Strategy = Dmc_core.Strategy
module Optimal = Dmc_core.Optimal
module Hierarchy = Dmc_machine.Hierarchy
module Rng = Dmc_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* S-partitions                                                        *)

let test_in_out_sets () =
  (* tree of 4 leaves: in/out of the two lowest internal vertices *)
  let g = Dmc_gen.Shapes.reduction_tree 4 in
  (* vertices: 0..3 leaves, 4 = 0+1, 5 = 2+3, 6 = root *)
  let vi = Bitset.of_list 7 [ 4; 5 ] in
  Alcotest.(check (list int)) "In" [ 0; 1; 2; 3 ] (Bitset.elements (Dmc_cdag.Subgraph.boundary_in g vi));
  Alcotest.(check (list int)) "Out" [ 4; 5 ] (Bitset.elements (Dmc_cdag.Subgraph.boundary_out g vi));
  (* output vertices always count in Out *)
  let root_only = Bitset.of_list 7 [ 6 ] in
  Alcotest.(check (list int)) "root in Out" [ 6 ]
    (Bitset.elements (Dmc_cdag.Subgraph.boundary_out g root_only))

let test_check_partition () =
  let g = Dmc_gen.Shapes.reduction_tree 4 in
  (* single block of all compute vertices: In = 4 leaves, Out = 1 *)
  let color = [| -1; -1; -1; -1; 0; 0; 0 |] in
  (match Spartition.check g ~s:4 ~color with
  | Ok h -> check "one block" 1 h
  | Error m -> Alcotest.fail m);
  (match Spartition.check g ~s:3 ~color with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "|In| = 4 accepted at S = 3");
  (* inputs must stay uncolored *)
  (match Spartition.check g ~s:4 ~color:[| 0; -1; -1; -1; 0; 0; 0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "colored input accepted");
  (* compute vertices must be colored *)
  match Spartition.check g ~s:4 ~color:[| -1; -1; -1; -1; -1; 0; 0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "uncolored compute vertex accepted"

let test_check_circuit () =
  (* x -> y -> z, x -> z; color {x,z} vs {y}: edges both ways = circuit *)
  let b = Cdag.Builder.create () in
  let i = Cdag.Builder.add_vertex b in
  let x = Cdag.Builder.add_vertex b in
  let y = Cdag.Builder.add_vertex b in
  let z = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b i x;
  Cdag.Builder.add_edge b x y;
  Cdag.Builder.add_edge b y z;
  Cdag.Builder.add_edge b x z;
  let g = Cdag.Builder.freeze b in
  match Spartition.check g ~s:5 ~color:[| -1; 0; 1; 0 |] with
  | Error msg ->
      check_bool "mentions circuit" true
        (String.length msg >= 7 && String.sub msg 0 7 = "circuit")
  | Ok _ -> Alcotest.fail "two-subset circuit accepted"

let test_of_game_produces_valid_partition () =
  let g = Dmc_gen.Fft.butterfly 3 in
  let s = 4 in
  let moves = Strategy.schedule g ~s in
  let color = Spartition.of_game g ~s moves in
  match Spartition.check g ~s:(2 * s) ~color with
  | Ok h ->
      let io = Dmc_core.Rbw_game.io_of g ~s moves in
      check_bool "lemma direction" true (io >= s * (h - 1))
  | Error m -> Alcotest.fail m

let test_min_h_exact_trivial () =
  (* a single compute vertex: h = 1 *)
  let g = Dmc_gen.Shapes.reduction_tree 2 in
  check "tiny tree" 1 (Spartition.min_h_exact g ~s:4);
  (* chain of computes fits one subset when S >= 1 boundary *)
  let c = Dmc_gen.Shapes.chain 6 in
  check "chain one block" 1 (Spartition.min_h_exact c ~s:2)

let test_min_h_exact_forced_split () =
  (* tree with 8 leaves at sigma = 3: any single block containing all
     computes has |In| = 8 > 3, so h > 1 *)
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  check_bool "forced split" true (Spartition.min_h_exact g ~s:3 > 1)

let test_max_subset_exact () =
  let g = Dmc_gen.Shapes.chain 10 in
  (* the whole 9-vertex compute chain has In = {input}, Out = {sink} *)
  check "chain whole" 9 (Spartition.max_subset_exact g ~s:2);
  let t = Dmc_gen.Shapes.reduction_tree 8 in
  let u3 = Spartition.max_subset_exact t ~s:3 in
  let u8 = Spartition.max_subset_exact t ~s:8 in
  check_bool "monotone in s" true (u8 >= u3);
  check "everything fits at large s" (Cdag.n_compute t) u8

let test_bound_arithmetic () =
  check "lemma1" 12 (Spartition.lemma1_bound ~s:4 ~h:4);
  check "lemma1 clamps" 0 (Spartition.lemma1_bound ~s:4 ~h:0);
  check "corollary1" 8 (Spartition.corollary1_bound ~s:4 ~n_compute:12 ~u:4);
  check "corollary1 rounds up" 5 (Spartition.corollary1_bound ~s:4 ~n_compute:9 ~u:4);
  check "corollary1 clamps" 0 (Spartition.corollary1_bound ~s:4 ~n_compute:2 ~u:4);
  Alcotest.check_raises "u positive"
    (Invalid_argument "Spartition.corollary1_bound: u must be positive") (fun () ->
      ignore (Spartition.corollary1_bound ~s:1 ~n_compute:1 ~u:0))

let prop_min_h_below_game_h =
  QCheck.Test.make ~name:"exhaustive H(2S) below any game-derived h" ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:3 ~width:3 ~edge_prob:0.5 in
      if Cdag.n_compute g > 8 then true
      else begin
        let max_indeg =
          Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
        in
        let s = max_indeg + 1 in
        let moves = Strategy.schedule g ~s in
        let color = Spartition.of_game g ~s moves in
        let h_game = 1 + Array.fold_left max (-1) color in
        match Spartition.min_h_exact g ~s:(2 * s) with
        | h_min -> h_min <= h_game
        | exception Optimal.Too_large _ -> true
      end)

(* ------------------------------------------------------------------ *)
(* Wavefronts                                                          *)

let test_wavefront_chain () =
  let g = Cdag.retag (Dmc_gen.Shapes.chain 7) ~inputs:[] ~outputs:[] in
  (* every vertex of a bare chain has wavefront 1 *)
  check "middle" 1 (Wavefront.min_wavefront g 3);
  check "wmax" 1 (Wavefront.wmax_exact g)

let test_wavefront_parallel_paths () =
  (* The CG/GMRES pattern in miniature: a scalar x reads k sources, and
     each source is also read again after x — so at the instant x
     fires, all k sources are still live: Wmin(x) >= k + 1 (the k
     disjoint source->post paths plus x's own path). *)
  let b = Cdag.Builder.create () in
  let k = 5 in
  let srcs = Array.init k (fun _ -> Cdag.Builder.add_vertex b) in
  let x = Cdag.Builder.add_vertex b in
  Array.iter (fun s -> Cdag.Builder.add_edge b s x) srcs;
  Array.iter
    (fun s ->
      let post = Cdag.Builder.add_vertex b in
      Cdag.Builder.add_edge b x post;
      Cdag.Builder.add_edge b s post)
    srcs;
  let g = Cdag.Builder.freeze ~inputs:[] ~outputs:[] b in
  check "wavefront pins the sources" (k + 1) (Wavefront.min_wavefront g x)

let test_wavefront_diamond_antidiagonal () =
  let g = Cdag.retag (Dmc_gen.Shapes.diamond ~rows:4 ~cols:4) ~inputs:[] ~outputs:[] in
  (* the widest anti-diagonal of a 4x4 diamond has 4 vertices *)
  check "diamond wmax" 4 (Wavefront.wmax_exact g)

let test_wavefront_sampled_le_exact () =
  let rng = Rng.create 3 in
  let g = Cdag.retag (Dmc_gen.Fft.butterfly 3) ~inputs:[] ~outputs:[] in
  let exact = Wavefront.wmax_exact g in
  let sampled = Wavefront.wmax_sampled rng g ~samples:16 in
  check_bool "sampled below exact" true (sampled <= exact);
  check_bool "sampled positive" true (sampled >= 1)

let prop_wavefront_sound_structural =
  (* the wavefront bound against the exhaustive optimum, with real
     shrinking on failure *)
  QCheck.Test.make ~name:"wavefront bound below the optimum (structural)" ~count:30
    (Dmc_testlib.Gen_cdag.arbitrary ~max_n:9 ())
    (fun spec ->
      let g = Dmc_testlib.Gen_cdag.spec_to_cdag spec in
      let s = Dmc_testlib.Gen_cdag.max_indegree spec + 1 in
      Wavefront.lower_bound g ~s <= Optimal.rbw_io g ~s)

let test_lemma2_bound () =
  check "positive" 6 (Wavefront.lemma2_bound ~wavefront:7 ~s:4);
  check "clamped" 0 (Wavefront.lemma2_bound ~wavefront:3 ~s:4)

let test_witness_cg () =
  (* the 2 n^d wavefront of CG's scalar [a] comes with a re-checkable
     Menger witness *)
  let cg = Dmc_gen.Solver.cg ~dims:[ 3 ] ~iters:2 in
  let x = cg.Dmc_gen.Solver.iterations.(1).Dmc_gen.Solver.a_scalar in
  let w = Wavefront.witness cg.Dmc_gen.Solver.graph x in
  check "witness size = min wavefront"
    (Wavefront.min_wavefront cg.Dmc_gen.Solver.graph x)
    (List.length w.Wavefront.paths);
  check_bool "witness verifies" true
    (Wavefront.verify_witness cg.Dmc_gen.Solver.graph w)

let test_witness_rejects_tampering () =
  let g = Cdag.retag (Dmc_gen.Shapes.diamond ~rows:3 ~cols:3) ~inputs:[] ~outputs:[] in
  let center = 4 in
  let w = Wavefront.witness g center in
  check_bool "genuine witness verifies" true (Wavefront.verify_witness g w);
  (* duplicating a path breaks disjointness *)
  (match w.Wavefront.paths with
  | p :: _ ->
      check_bool "duplicated path rejected" false
        (Wavefront.verify_witness g { w with Wavefront.paths = p :: w.Wavefront.paths })
  | [] -> Alcotest.fail "expected a nonempty witness");
  (* a fabricated non-path is rejected *)
  check_bool "non-path rejected" false
    (Wavefront.verify_witness g { w with Wavefront.paths = [ [ 0; 8 ] ] })

let prop_witness_always_verifies =
  QCheck.Test.make ~name:"witnesses verify on random DAGs" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:4 ~edge_prob:0.5 in
      let x = Rng.int rng (Cdag.n_vertices g) in
      let w = Wavefront.witness g x in
      Wavefront.verify_witness g w
      && List.length w.Wavefront.paths
         = (if Dmc_util.Bitset.is_empty (Dmc_cdag.Reach.descendants g x) then 0
            else Wavefront.min_wavefront g x))

let test_lower_bound_counts_io_tags () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  (* 8 inputs + 1 output must move regardless of S *)
  check_bool "floor via corollary 2" true (Wavefront.lower_bound g ~s:50 >= 9)

let prop_certify_wavefront =
  QCheck.Test.make ~name:"wavefront certificates verify on random DAGs" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:4 ~edge_prob:0.4 in
      Bounds.certify_wavefront g ~s:4)

(* ------------------------------------------------------------------ *)
(* Decompose                                                           *)

let test_adjust_arithmetic () =
  check "untag" 5 (Decompose.untag_adjust ~bound_tagged:9 ~d_inputs:3 ~d_outputs:1);
  check "untag clamps" 0 (Decompose.untag_adjust ~bound_tagged:2 ~d_inputs:3 ~d_outputs:1);
  check "deletion" 9 (Decompose.io_deletion_adjust ~bound_inner:5 ~d_inputs:3 ~d_outputs:1)

let test_sum_disjoint_components () =
  (* two disconnected trees: the summed bound equals the sum of the
     separate bounds *)
  let b = Cdag.Builder.create () in
  let mk_tree () =
    let i1 = Cdag.Builder.add_vertex b and i2 = Cdag.Builder.add_vertex b in
    let o = Cdag.Builder.add_vertex b in
    Cdag.Builder.add_edge b i1 o;
    Cdag.Builder.add_edge b i2 o;
    (i1, i2, o)
  in
  let _ = mk_tree () and _ = mk_tree () in
  let g = Cdag.Builder.freeze b in
  let color = [| 0; 0; 0; 1; 1; 1 |] in
  let bound part = Dmc_core.Bounds.io_floor part in
  check "sum of floors" 6 (Decompose.sum_disjoint g ~color ~bound)

let test_iteration_slices_clamped () =
  let st = Dmc_gen.Stencil.jacobi_1d ~n:4 ~steps:3 in
  let npts = 4 in
  let parts =
    Decompose.iteration_slices st.Dmc_gen.Stencil.graph
      ~slice_of:(fun v -> (v / npts) - 1)  (* time step of the vertex, -1 for inputs *)
      ~n_slices:3
  in
  check "three slices" 3 (Array.length parts);
  (* inputs clamp into slice 0 *)
  check "slice 0 holds inputs and step 1" 8
    (Cdag.n_vertices parts.(0).Dmc_cdag.Subgraph.graph)

let test_wavefront_sum_on_stencil () =
  (* slicing a 1D stencil by time step and targeting the middle of each
     row gives a per-step wavefront of ~n *)
  let n = 10 and steps = 3 in
  let st = Dmc_gen.Stencil.jacobi_1d ~n ~steps in
  let g = st.Dmc_gen.Stencil.graph in
  let slice_of v = max 0 ((v / n) - 1) in
  let parts = Decompose.iteration_slices g ~slice_of ~n_slices:steps in
  let pieces =
    Array.mapi (fun t part -> (part, [ st.Dmc_gen.Stencil.vertex (t + 1) (n / 2) ])) parts
  in
  let s = 5 in
  let lb = Decompose.wavefront_sum g ~pieces ~s in
  let ub = Strategy.io g ~s in
  check_bool "positive" true (lb > 0);
  check_bool "below a real execution" true (lb <= ub)

(* the composed bound from slices never exceeds a measured execution on
   random layered DAGs *)
let prop_decomposed_sound =
  QCheck.Test.make ~name:"sliced wavefront bounds stay below executions" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:6 ~width:4 ~edge_prob:0.5 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 1 in
      let n = Cdag.n_vertices g in
      let slices = 3 in
      let color = Array.init n (fun v -> v * slices / n) in
      let bound part = Wavefront.lower_bound part ~s in
      let lb = Decompose.sum_disjoint g ~color ~bound in
      lb <= Strategy.io g ~s)

(* ------------------------------------------------------------------ *)
(* Analytic formulas                                                   *)

let test_analytic_values () =
  check_float "matmul n=4 s=2" (64.0 /. 4.0) (Analytic.matmul_lb ~n:4 ~s:2);
  check_float "outer" 24.0 (Analytic.outer_product_io ~n:4);
  check_float "composite" 17.0 (Analytic.composite_io_upper ~n:4);
  check_float "fft n=16 s=4" (16.0 *. 4.0 /. 4.0) (Analytic.fft_lb ~n:16 ~s:4);
  check_float "ghost 1d" 2.0 (Analytic.ghost_cells ~d:1 ~block:10);
  check_float "ghost 2d" 44.0 (Analytic.ghost_cells ~d:2 ~block:10);
  check_float "jacobi lb" (8.0 *. 8.0 *. 4.0 /. (4.0 *. 4.0))
    (Analytic.jacobi_lb ~d:2 ~n:8 ~steps:4 ~s:8 ~p:1);
  check_float "cg flops" (20.0 *. 1000.0 *. 5.0) (Analytic.cg_flops ~d:1 ~n:1000 ~steps:5);
  check_float "cg per flop" 0.3 (Analytic.cg_vertical_per_flop ());
  check_float "gmres per flop" (6.0 /. 36.0) (Analytic.gmres_vertical_per_flop ~m:16);
  check_float "pow_int" 1024.0 (Analytic.pow_int 2.0 10)

let test_analytic_paper_numbers () =
  (* the paper's reported Jacobi thresholds *)
  let bgq = Analytic.jacobi_max_dim ~s:(4 * 1024 * 1024) ~balance:0.052 in
  check_bool "bgq 4.83" true (Float.abs (bgq -. 4.83) < 0.1);
  let l1 = Analytic.jacobi_max_dim ~s:2048 ~balance:2.0 in
  check_bool "l2->l1 96" true (Float.abs (l1 -. 96.0) < 0.5);
  (* CG at d=3, n=1000 on 2048 nodes: 6 N^{1/3} / 20n *)
  check_float "cg horizontal" (6.0 *. 2048.0 ** (1.0 /. 3.0) /. 20000.0)
    (Analytic.cg_horizontal_per_flop ~d:3 ~n:1000 ~nodes:2048)

let test_analytic_exact_vs_asymptotic () =
  (* the exact forms approach the asymptotic ones when n >> S *)
  let exact = Analytic.cg_vertical_lb_exact ~d:3 ~n:100 ~steps:7 ~s:64 ~p:4 in
  let asym = Analytic.cg_vertical_lb ~d:3 ~n:100 ~steps:7 ~p:4 in
  check_bool "exact below asymptotic" true (exact <= asym);
  check_bool "within 1 percent at this scale" true (asym /. exact < 1.01);
  let ge = Analytic.gmres_vertical_lb_exact ~d:2 ~n:50 ~m:5 ~s:64 ~p:2 in
  let ga = Analytic.gmres_vertical_lb ~d:2 ~n:50 ~m:5 ~p:2 in
  check_bool "gmres exact below asymptotic" true (ge <= ga)

let test_analytic_errors () =
  Alcotest.check_raises "fft needs s>=2"
    (Invalid_argument "Analytic.fft_lb: s must be >= 2") (fun () ->
      ignore (Analytic.fft_lb ~n:8 ~s:1));
  Alcotest.check_raises "pow_int negative"
    (Invalid_argument "Analytic.pow_int: negative exponent") (fun () ->
      ignore (Analytic.pow_int 2.0 (-1)))

(* ------------------------------------------------------------------ *)
(* Parallel bounds                                                     *)

let test_parallel_bounds () =
  let h =
    Hierarchy.create
      [ { Hierarchy.count = 8; capacity = 16 };
        { Hierarchy.count = 4; capacity = 256 };
        { Hierarchy.count = 4; capacity = 65536 } ]
  in
  (* Theorem 5: sequential LB at S1*N1 = 128, split over N2 = 4 *)
  let seq_lb ~s = float_of_int (1000000 / s) in
  check_float "theorem 5" (float_of_int (1000000 / 128) /. 4.0)
    (Parallel_bounds.vertical_from_sequential ~hierarchy:h ~level:2 ~seq_lb);
  (* Theorem 6 at level 3: ((W/(U*N3)) - N2/N3) * S2 *)
  check_float "theorem 6" (((8000.0 /. (10.0 *. 4.0)) -. 1.0) *. 256.0)
    (Parallel_bounds.vertical_from_u ~hierarchy:h ~level:3 ~work:8000.0 ~u:10.0);
  (* Theorem 7: ((W/(U*(P/NL))) - 1) * SL *)
  check_float "theorem 7" (((8000.0 /. (10.0 *. 2.0)) -. 1.0) *. 65536.0)
    (Parallel_bounds.horizontal_from_u ~hierarchy:h ~work:8000.0 ~u:10.0);
  check_float "work per proc" 1000.0
    (Parallel_bounds.per_processor_work ~hierarchy:h ~work:8000.0);
  (* clamping *)
  check_float "theorem 6 clamps" 0.0
    (Parallel_bounds.vertical_from_u ~hierarchy:h ~level:3 ~work:1.0 ~u:1000.0);
  Alcotest.check_raises "level 1 invalid"
    (Invalid_argument "Parallel_bounds: level must be in [2, L]") (fun () ->
      ignore (Parallel_bounds.vertical_from_u ~hierarchy:h ~level:1 ~work:1.0 ~u:1.0))

(* ------------------------------------------------------------------ *)
(* The Bounds umbrella                                                 *)

let test_bounds_report () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  let r = Bounds.analyze ~optimal_limit:16 g ~s:3 in
  check "floor" 9 r.Bounds.io_floor;
  check_bool "best is max" true
    (r.Bounds.best_lb >= r.Bounds.io_floor && r.Bounds.best_lb >= r.Bounds.wavefront_lb);
  (match r.Bounds.optimal_io with
  | Some opt ->
      check_bool "lb <= opt" true (r.Bounds.best_lb <= opt);
      check_bool "opt <= ub" true (opt <= r.Bounds.belady_ub)
  | None -> Alcotest.fail "optimal expected for 15 vertices");
  check_bool "ub ordering" true (r.Bounds.belady_ub <= r.Bounds.trivial_ub)

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_bounds"
    [
      ( "spartition",
        [
          Alcotest.test_case "in/out sets" `Quick test_in_out_sets;
          Alcotest.test_case "check partition" `Quick test_check_partition;
          Alcotest.test_case "circuit detection" `Quick test_check_circuit;
          Alcotest.test_case "of_game valid" `Quick test_of_game_produces_valid_partition;
          Alcotest.test_case "min_h trivial" `Quick test_min_h_exact_trivial;
          Alcotest.test_case "min_h forced split" `Quick test_min_h_exact_forced_split;
          Alcotest.test_case "max subset" `Quick test_max_subset_exact;
          Alcotest.test_case "bound arithmetic" `Quick test_bound_arithmetic;
        ] );
      ( "wavefront",
        [
          Alcotest.test_case "chain" `Quick test_wavefront_chain;
          Alcotest.test_case "parallel paths" `Quick test_wavefront_parallel_paths;
          Alcotest.test_case "diamond anti-diagonal" `Quick test_wavefront_diamond_antidiagonal;
          Alcotest.test_case "sampled below exact" `Quick test_wavefront_sampled_le_exact;
          Alcotest.test_case "lemma 2" `Quick test_lemma2_bound;
          Alcotest.test_case "cg witness" `Quick test_witness_cg;
          Alcotest.test_case "witness tampering" `Quick test_witness_rejects_tampering;
          Alcotest.test_case "io tags counted" `Quick test_lower_bound_counts_io_tags;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "adjust arithmetic" `Quick test_adjust_arithmetic;
          Alcotest.test_case "disconnected components" `Quick test_sum_disjoint_components;
          Alcotest.test_case "iteration slices" `Quick test_iteration_slices_clamped;
          Alcotest.test_case "wavefront sum on stencil" `Quick test_wavefront_sum_on_stencil;
        ] );
      qsuite "decompose-props" [ prop_decomposed_sound ];
      qsuite "witness-props" [ prop_witness_always_verifies ];
      qsuite "partition-props" [ prop_min_h_below_game_h ];
      qsuite "certify-props" [ prop_certify_wavefront ];
      qsuite "wavefront-structural" [ prop_wavefront_sound_structural ];
      ( "analytic",
        [
          Alcotest.test_case "formula values" `Quick test_analytic_values;
          Alcotest.test_case "paper numbers" `Quick test_analytic_paper_numbers;
          Alcotest.test_case "exact vs asymptotic" `Quick test_analytic_exact_vs_asymptotic;
          Alcotest.test_case "errors" `Quick test_analytic_errors;
        ] );
      ( "parallel", [ Alcotest.test_case "theorems 5-7" `Quick test_parallel_bounds ] );
      ( "umbrella", [ Alcotest.test_case "report" `Quick test_bounds_report ] );
    ]
