(* Tests for the exhaustive optimal-game search — known optima, a
   differential oracle against plain Dijkstra, model-relating
   inequalities, and budget guards. *)

module Cdag = Dmc_cdag.Cdag
module Optimal = Dmc_core.Optimal
module Strategy = Dmc_core.Strategy
module Rng = Dmc_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Known optima                                                        *)

let test_chain () =
  let g = Dmc_gen.Shapes.chain 8 in
  (* a chain with S >= 2 needs exactly its one load and one store *)
  check "rbw chain" 2 (Optimal.rbw_io g ~s:2);
  check "rb chain" 2 (Optimal.rb_io g ~s:2);
  (* with S = 1 the single input can never feed its successor while the
     result is placed — but rule R3 needs both simultaneously, so the
     game needs the input red and one more slot: impossible; the chain
     beyond the input cannot fire.  The search must report failure. *)
  Alcotest.check_raises "S=1 impossible"
    (Optimal.Too_large "Optimal: no complete game found (exhausted states)")
    (fun () -> ignore (Optimal.rbw_io g ~s:1))

let test_diamond_fits () =
  (* Pebbling an n x n grid needs n + 1 pebbles (the advancing
     anti-diagonal plus the cell in flight): at S = 4 the 3x3 diamond
     runs spill-free, at S = 3 it cannot. *)
  let g = Dmc_gen.Shapes.diamond ~rows:3 ~cols:3 in
  check "diamond S=4" 2 (Optimal.rbw_io g ~s:4);
  check_bool "diamond S=3 spills" true (Optimal.rbw_io g ~s:3 > 2)

let test_independent_outputs () =
  (* n independent compute vertices, all outputs: each costs exactly
     one store; fires are free *)
  let g = Dmc_gen.Shapes.independent 4 in
  check "independent" 4 (Optimal.rbw_io g ~s:2)

let test_two_level_fanin () =
  (* 2 inputs shared by 2 mids + 1 out: loads 2, store 1 at S >= 4 *)
  let g = Dmc_gen.Shapes.two_level_fanin ~fanin:2 ~mids:2 in
  check "fanin io" 3 (Optimal.rbw_io g ~s:5)

let test_tree_s_large () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  (* with S large there are no spills: 8 loads + 1 store *)
  check "tree no spill" 9 (Optimal.rbw_io g ~s:15);
  check "rb agrees" 9 (Optimal.rb_io g ~s:15)

let test_pinned_optima () =
  (* the ground-truth optima the benchmark's expected output records *)
  List.iter
    (fun (spec, s, io) ->
      let g = Dmc_gen.Workload.parse_exn spec in
      check (Printf.sprintf "%s @ S=%d" spec s) io (Optimal.rbw_io g ~s))
    [
      ("diamond:3,4", 3, 8);
      ("tree:8", 3, 15);
      ("fft:2", 3, 14);
      ("fft:2", 5, 9);
      ("pyramid:4", 3, 18);
      ("jacobi1d:4,2", 5, 10);
    ]

(* ------------------------------------------------------------------ *)
(* Differential oracle: plain Dijkstra                                 *)

(* An independent reference: uniform-cost Dijkstra over a polymorphic
   Hashtbl and a binary heap, with no heuristic, and each game's move
   rules written out on its own.  [None] when no complete game exists. *)
module Reference = struct
  module Heap = Dmc_util.Heap

  let popcount =
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
    fun x -> go x 0

  let pred_masks g =
    Array.init (Cdag.n_vertices g) (fun v ->
        Cdag.fold_pred g v (fun m u -> m lor (1 lsl u)) 0)

  let mask_of_list vs = List.fold_left (fun m v -> m lor (1 lsl v)) 0 vs

  let dijkstra ~start ~is_goal ~successors =
    let dist = Hashtbl.create 4096 in
    let heap = Heap.create () in
    Hashtbl.replace dist start 0;
    Heap.push heap ~prio:0 ~value:start;
    let rec loop () =
      match Heap.pop_min heap with
      | None -> None
      | Some (cost, st) ->
          if cost > Hashtbl.find dist st then loop ()
          else if is_goal st then Some cost
          else begin
            successors st (fun c st' ->
                let c' = cost + c in
                match Hashtbl.find_opt dist st' with
                | Some known when known <= c' -> ()
                | _ ->
                    Hashtbl.replace dist st' c';
                    Heap.push heap ~prio:c' ~value:st');
            loop ()
          end
    in
    loop ()

  (* RBW: states white | red | blue *)
  let rbw_io g ~s =
    let n = Cdag.n_vertices g in
    let preds = pred_masks g in
    let input_mask = mask_of_list (Cdag.inputs g) in
    let output_mask = mask_of_list (Cdag.outputs g) in
    let all_mask = (1 lsl n) - 1 in
    let encode ~white ~red ~blue = (white lsl (2 * n)) lor (red lsl n) lor blue in
    let white_of st = st lsr (2 * n) in
    let red_of st = (st lsr n) land all_mask in
    let blue_of st = st land all_mask in
    let is_goal st =
      white_of st = all_mask && output_mask land lnot (blue_of st) = 0
    in
    let successors st push =
      let white = white_of st and red = red_of st and blue = blue_of st in
      let full = popcount red >= s in
      let place ?(protect = 0) cost v =
        let bit = 1 lsl v in
        if not full then
          push cost (encode ~white:(white lor bit) ~red:(red lor bit) ~blue)
        else
          for r = 0 to n - 1 do
            if red land (1 lsl r) <> 0 && protect land (1 lsl r) = 0 then
              push cost
                (encode ~white:(white lor bit)
                   ~red:((red land lnot (1 lsl r)) lor bit)
                   ~blue)
          done
      in
      for v = 0 to n - 1 do
        let bit = 1 lsl v in
        if red land bit = 0 then begin
          if blue land bit <> 0 then place 1 v;
          if
            white land bit = 0
            && input_mask land bit = 0
            && preds.(v) land lnot red = 0
          then place ~protect:preds.(v) 0 v
        end
        else if blue land bit = 0 then
          push 1 (encode ~white ~red ~blue:(blue lor bit))
      done
    in
    dijkstra ~start:(encode ~white:0 ~red:0 ~blue:input_mask) ~is_goal ~successors

  (* Hong–Kung: states red | blue, recomputation allowed *)
  let rb_io g ~s =
    let n = Cdag.n_vertices g in
    let preds = pred_masks g in
    let input_mask = mask_of_list (Cdag.inputs g) in
    let output_mask = mask_of_list (Cdag.outputs g) in
    let encode ~red ~blue = (red lsl n) lor blue in
    let red_of st = st lsr n in
    let blue_of st = st land ((1 lsl n) - 1) in
    let is_goal st = output_mask land lnot (blue_of st) = 0 in
    let successors st push =
      let red = red_of st and blue = blue_of st in
      let full = popcount red >= s in
      let place ?(protect = 0) cost v =
        let bit = 1 lsl v in
        if not full then push cost (encode ~red:(red lor bit) ~blue)
        else
          for r = 0 to n - 1 do
            if red land (1 lsl r) <> 0 && protect land (1 lsl r) = 0 then
              push cost (encode ~red:((red land lnot (1 lsl r)) lor bit) ~blue)
          done
      in
      for v = 0 to n - 1 do
        let bit = 1 lsl v in
        if red land bit = 0 then begin
          if blue land bit <> 0 then place 1 v;
          if input_mask land bit = 0 && preds.(v) land lnot red = 0 then
            place ~protect:preds.(v) 0 v
        end
        else if blue land bit = 0 then push 1 (encode ~red ~blue:(blue lor bit))
      done
    in
    dijkstra ~start:(encode ~red:0 ~blue:input_mask) ~is_goal ~successors
end

let prop_matches_reference =
  QCheck.Test.make ~name:"A* search equals plain Dijkstra in both games" ~count:100
    QCheck.(pair (Dmc_testlib.Gen_cdag.arbitrary ~max_n:10 ()) (int_range 1 3))
    (fun (spec, extra) ->
      let g = Dmc_testlib.Gen_cdag.spec_to_cdag spec in
      let s = Dmc_testlib.Gen_cdag.max_indegree spec + extra in
      Reference.rbw_io g ~s = Some (Optimal.rbw_io g ~s)
      && Reference.rb_io g ~s = Some (Optimal.rb_io g ~s))

(* ------------------------------------------------------------------ *)
(* Inequalities between the models                                     *)

(* structural generator: counterexamples shrink to minimal graphs *)
let prop_rb_le_rbw =
  QCheck.Test.make ~name:"forbidding recomputation cannot reduce I/O" ~count:40
    (Dmc_testlib.Gen_cdag.arbitrary ~max_n:9 ())
    (fun spec ->
      let g = Dmc_testlib.Gen_cdag.spec_to_cdag spec in
      let s = Dmc_testlib.Gen_cdag.max_indegree spec + 1 in
      Optimal.rb_io g ~s <= Optimal.rbw_io g ~s)

let prop_optimal_le_strategies =
  QCheck.Test.make ~name:"the optimum is below every strategy" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.gnp rng ~n:9 ~edge_prob:0.3 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 2 in
      let opt = Optimal.rbw_io g ~s in
      opt <= Strategy.io ~policy:Strategy.Belady g ~s
      && opt <= Strategy.io ~policy:Strategy.Lru g ~s
      && opt <= Strategy.trivial_io g)

let prop_optimal_monotone_in_s =
  QCheck.Test.make ~name:"more red pebbles never increase the optimum" ~count:30
    (Dmc_testlib.Gen_cdag.arbitrary ~max_n:9 ())
    (fun spec ->
      let g = Dmc_testlib.Gen_cdag.spec_to_cdag spec in
      let s = Dmc_testlib.Gen_cdag.max_indegree spec + 1 in
      Optimal.rbw_io g ~s:(s + 2) <= Optimal.rbw_io g ~s)

let prop_optimal_ge_floor =
  QCheck.Test.make ~name:"the optimum pays the tagging floor" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.gnp rng ~n:9 ~edge_prob:0.3 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 1 in
      Optimal.rbw_io g ~s >= Dmc_core.Bounds.io_floor g)

(* ------------------------------------------------------------------ *)
(* Theorem 3: tagging arithmetic against the exhaustive optimum        *)

let prop_theorem3_tagging =
  QCheck.Test.make ~name:"Theorem 3: tags only add I/O, within |dI|+|dO|" ~count:25
    (Dmc_testlib.Gen_cdag.arbitrary ~max_n:8 ())
    (fun spec ->
      let g = Dmc_testlib.Gen_cdag.spec_to_cdag spec in
      let s = Dmc_testlib.Gen_cdag.max_indegree spec + 1 in
      (* add an output tag on every vertex and keep inputs as they are:
         dO = non-output vertices *)
      let n = Cdag.n_vertices g in
      let d_o =
        List.filter (fun v -> not (Cdag.is_output g v)) (List.init n Fun.id)
      in
      let g' =
        Cdag.retag g ~inputs:(Cdag.inputs g)
          ~outputs:(Cdag.outputs g @ d_o)
      in
      let io = Optimal.rbw_io g ~s and io' = Optimal.rbw_io g' ~s in
      (* untagging direction: IO(C) <= IO(C'); tagging direction:
         IO(C') - |dO| <= IO(C) *)
      io <= io' && io' - List.length d_o <= io)

let prop_theorem3_input_tagging =
  QCheck.Test.make ~name:"Theorem 3: input tags on sources, same sandwich" ~count:25
    (Dmc_testlib.Gen_cdag.arbitrary ~max_n:8 ())
    (fun spec ->
      let g0 = Dmc_testlib.Gen_cdag.spec_to_cdag spec in
      let s = Dmc_testlib.Gen_cdag.max_indegree spec + 1 in
      (* start from a variant with NO input tags (sources fire freely),
         then tag all sources as inputs *)
      let g = Cdag.retag g0 ~inputs:[] ~outputs:(Cdag.outputs g0) in
      let d_i = Cdag.sources g in
      let g' = Cdag.retag g ~inputs:d_i ~outputs:(Cdag.outputs g) in
      let io = Optimal.rbw_io g ~s and io' = Optimal.rbw_io g' ~s in
      io <= io' && io' - List.length d_i <= io)

(* ------------------------------------------------------------------ *)
(* Balanced-assignment horizontal optimum                              *)

let test_horizontal_chain () =
  (* a compute chain split across 2 balanced processors must cross at
     least once *)
  let g = Dmc_gen.Shapes.chain 9 in
  let cost, assign = Optimal.min_balanced_horizontal g ~procs:2 in
  check "one crossing" 1 cost;
  check "assignment covers all vertices" (Cdag.n_vertices g) (Array.length assign);
  (* the returned assignment realizes the cost: contiguous halves *)
  let crossings = ref 0 in
  Cdag.iter_edges g (fun u v -> if assign.(u) <> assign.(v) then incr crossings);
  check "assignment has one cut edge" 1 !crossings

let test_horizontal_independent_free () =
  (* independent vertices never communicate *)
  let g = Dmc_gen.Shapes.independent 6 in
  let cost, _ = Optimal.min_balanced_horizontal g ~procs:3 in
  check "no communication" 0 cost

let test_horizontal_inputs_free () =
  (* a reduction tree of 8 leaves: the leaves are inputs (free); the 7
     internal adds split 4/3 across 2 procs with one crossing *)
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  let cost, _ = Optimal.min_balanced_horizontal g ~procs:2 in
  check "tree crossing" 1 cost

let test_horizontal_stencil () =
  (* 1D stencil, 2 procs: each step the boundary exchanges one value in
     each direction; contiguous halves are optimal *)
  let st = Dmc_gen.Stencil.jacobi_1d ~n:4 ~steps:2 in
  let cost, _ = Optimal.min_balanced_horizontal st.Dmc_gen.Stencil.graph ~procs:2 in
  (* step 1 -> step 2 crossing: u(1,1) needed by u(2,2) and u(1,2) by
     u(2,1): 2 words (the final step's outputs are not consumed) *)
  check "stencil crossings" 2 cost

let prop_spmd_dominates_optimal =
  QCheck.Test.make ~name:"spmd traffic dominates the balanced optimum" ~count:15
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:3 ~edge_prob:0.5 in
      if Cdag.n_compute g > 12 then true
      else begin
        let procs = 2 in
        let cost, assign = Optimal.min_balanced_horizontal g ~procs in
        let max_indeg =
          Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
        in
        let hier =
          Dmc_machine.Hierarchy.create
            [ { Dmc_machine.Hierarchy.count = procs; capacity = max_indeg + 1 };
              { Dmc_machine.Hierarchy.count = procs; capacity = 1_000_000 } ]
        in
        (* run spmd with the optimal assignment itself: measured remote
           gets equal the optimum (the reduction is exact) *)
        let moves =
          Strategy.spmd g hier ~owner:(fun v -> assign.(v)) ()
        in
        match Dmc_core.Prbw_game.run hier g moves with
        | Ok stats -> stats.Dmc_core.Prbw_game.remote_gets >= cost
        | Error _ -> false
      end)

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)

let test_size_guards () =
  let big = Dmc_gen.Shapes.diamond ~rows:5 ~cols:5 in
  Alcotest.check_raises "rbw > 20 vertices"
    (Optimal.Too_large "Optimal.rbw_io: more than 20 vertices") (fun () ->
      ignore (Optimal.rbw_io big ~s:4));
  let mid = Dmc_gen.Shapes.diamond ~rows:4 ~cols:5 in
  (* 20 vertices: accepted by rbw, rejected by nothing for rb *)
  ignore (Optimal.rb_io mid ~s:6);
  Alcotest.check_raises "state budget"
    (Optimal.Too_large "Optimal: state budget exhausted") (fun () ->
      ignore (Optimal.rbw_io ~max_states:10 (Dmc_gen.Shapes.reduction_tree 8) ~s:3))

(* [max_states] caps the distinct states stored, start included. *)
let test_state_cap_boundary () =
  let exhausted = Optimal.Too_large "Optimal: state budget exhausted" in
  (* chain 2 at S = 2: load, compute, store — every reachable state is
     stored, 4 in all *)
  let g = Dmc_gen.Shapes.chain 2 in
  check "rbw fits in 4 states" 2 (Optimal.rbw_io ~max_states:4 g ~s:2);
  check "rb fits in 4 states" 2 (Optimal.rb_io ~max_states:4 g ~s:2);
  Alcotest.check_raises "rbw needs a 4th state" exhausted (fun () ->
      ignore (Optimal.rbw_io ~max_states:3 g ~s:2));
  Alcotest.check_raises "rb needs a 4th state" exhausted (fun () ->
      ignore (Optimal.rb_io ~max_states:3 g ~s:2));
  (* chain 3 at S = 1: only the input load is possible, so the search
     stores 2 states and then runs dry *)
  let g = Dmc_gen.Shapes.chain 3 in
  Alcotest.check_raises "2 states: no complete game"
    (Optimal.Too_large "Optimal: no complete game found (exhausted states)")
    (fun () -> ignore (Optimal.rbw_io ~max_states:2 g ~s:1));
  Alcotest.check_raises "1 state: cap" exhausted (fun () ->
      ignore (Optimal.rbw_io ~max_states:1 g ~s:1))

let test_input_validation () =
  let g = Dmc_gen.Shapes.chain 3 in
  Alcotest.check_raises "s must be positive"
    (Invalid_argument "Optimal.rbw_io: s must be positive") (fun () ->
      ignore (Optimal.rbw_io g ~s:0));
  let bad = Cdag.retag g ~inputs:[] ~outputs:[] in
  Alcotest.check_raises "rb needs hong-kung"
    (Invalid_argument "Optimal.rb_io: graph violates the Hong-Kung convention")
    (fun () -> ignore (Optimal.rb_io bad ~s:2))

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_optimal"
    [
      ( "known-optima",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "diamond" `Quick test_diamond_fits;
          Alcotest.test_case "independent outputs" `Quick test_independent_outputs;
          Alcotest.test_case "two-level fanin" `Quick test_two_level_fanin;
          Alcotest.test_case "tree without spills" `Quick test_tree_s_large;
          Alcotest.test_case "pinned ground truth" `Quick test_pinned_optima;
        ] );
      qsuite "oracle" [ prop_matches_reference ];
      qsuite "inequalities"
        [
          prop_rb_le_rbw;
          prop_optimal_le_strategies;
          prop_optimal_monotone_in_s;
          prop_optimal_ge_floor;
        ];
      ( "horizontal",
        [
          Alcotest.test_case "chain" `Quick test_horizontal_chain;
          Alcotest.test_case "independent" `Quick test_horizontal_independent_free;
          Alcotest.test_case "tree inputs free" `Quick test_horizontal_inputs_free;
          Alcotest.test_case "stencil" `Quick test_horizontal_stencil;
        ] );
      qsuite "theorem3-props" [ prop_theorem3_tagging; prop_theorem3_input_tagging ];
      qsuite "horizontal-props" [ prop_spmd_dominates_optimal ];
      ( "guards",
        [
          Alcotest.test_case "size guards" `Quick test_size_guards;
          Alcotest.test_case "state cap boundary" `Quick test_state_cap_boundary;
          Alcotest.test_case "input validation" `Quick test_input_validation;
        ] );
    ]
