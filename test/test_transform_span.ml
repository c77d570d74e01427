(* Tests of the exhaustive optimum under graph transformations
   (transposition, disjoint union) and of Savage's S-span engine. *)

module Cdag = Dmc_cdag.Cdag
module Gen_cdag = Dmc_testlib.Gen_cdag
module Span = Dmc_core.Span
module Optimal = Dmc_core.Optimal
module Rng = Dmc_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Transpose                                                           *)

(* The folklore "reverse the game" duality argument is unsound: the
   reverse of a delete is a pebble placement with no justification.
   This 8-vertex DAG (found by random search) pins the asymmetry:
   io(G) = 5 but io(G^T) = 6 at S = 4. *)
let test_transpose_duality_fails () =
  let build edges =
    let b = Cdag.Builder.create () in
    let v = Array.init 8 (fun _ -> Cdag.Builder.add_vertex b) in
    List.iter (fun (x, y) -> Cdag.Builder.add_edge b v.(x) v.(y)) edges;
    Cdag.Builder.freeze b
  in
  let g =
    build
      [ (0, 2); (0, 3); (1, 3); (1, 4); (2, 5); (2, 6); (3, 5); (3, 6); (3, 7);
        (4, 6); (4, 7) ]
  in
  (* every edge reversed; the default tagging makes G's sinks the
     inputs and G's sources the outputs, as transposition does *)
  let t =
    build
      [ (2, 0); (3, 0); (3, 1); (4, 1); (5, 2); (6, 2); (5, 3); (6, 3); (7, 3);
        (6, 4); (7, 4) ]
  in
  check "io(G)" 5 (Optimal.rb_io g ~s:4);
  check "io(G^T)" 6 (Optimal.rb_io t ~s:4)

let prop_transpose_optima_close =
  (* Even without exact duality, transposition cannot change the
     tagging floor, and both optima stay sandwiched between their own
     floors and trivial upper bounds. *)
  QCheck.Test.make ~name:"transpose keeps optima within their own floors and UBs"
    ~count:12
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:3 ~width:3 ~edge_prob:0.55 in
      if Cdag.n_vertices g > 11 || not (Dmc_cdag.Validate.is_hong_kung g) then true
      else begin
        let t = Gen_cdag.transpose g in
        let max_indeg h =
          Cdag.fold_vertices h (fun acc v -> max acc (Cdag.in_degree h v)) 0
        in
        let s = 1 + max (max_indeg g) (max_indeg t) in
        let io_g = Optimal.rb_io g ~s and io_t = Optimal.rb_io t ~s in
        (* outputs that are also inputs are born blue: the RB floor
           only counts the rest *)
        let floor h =
          List.length
            (List.filter (fun v -> not (Cdag.is_input h v)) (Cdag.outputs h))
        in
        io_g >= floor g
        && io_t >= floor t
        && io_t <= Dmc_core.Strategy.trivial_io t
      end)

(* ------------------------------------------------------------------ *)
(* Disjoint union                                                      *)

let prop_union_optimal_additive =
  QCheck.Test.make ~name:"optimal I/O is additive over disjoint unions" ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let a = Dmc_gen.Random_dag.gnp rng ~n:5 ~edge_prob:0.35 in
      let b = Dmc_gen.Random_dag.gnp rng ~n:5 ~edge_prob:0.35 in
      let u = Gen_cdag.disjoint_union a b in
      let max_indeg h =
        Cdag.fold_vertices h (fun acc v -> max acc (Cdag.in_degree h v)) 0
      in
      let s = max_indeg u + 1 in
      Optimal.rbw_io u ~s = Optimal.rbw_io a ~s + Optimal.rbw_io b ~s)

(* ------------------------------------------------------------------ *)
(* S-span                                                              *)

let test_span_chain () =
  let c = Dmc_gen.Shapes.chain 6 in
  (* two pebbles walk the whole chain: all 5 computes fire *)
  check "chain rho(2)" 5 (Span.s_span c ~s:2);
  check "chain rho(4)" 5 (Span.s_span c ~s:4);
  (* one pebble cannot fire anything beyond a source *)
  check "chain rho(1)" 0 (Span.s_span c ~s:1)

let test_span_tree () =
  let t = Dmc_gen.Shapes.reduction_tree 8 in
  (* regression values from the exhaustive search *)
  check "tree rho(4)" 2 (Span.s_span t ~s:4);
  check "tree rho(6)" 4 (Span.s_span t ~s:6);
  (* with room for everything the whole compute set fires *)
  check "tree rho(15)" 7 (Span.s_span t ~s:15)

let test_span_independent () =
  (* source compute vertices fire from an empty pebble set *)
  let g = Dmc_gen.Shapes.independent 5 in
  check "independent" 5 (Span.s_span g ~s:5);
  (* even one pebble fires them all (sequential, evicting) *)
  check "independent one pebble" 5 (Span.s_span g ~s:1)

let test_span_lower_bound () =
  let t = Dmc_gen.Shapes.reduction_tree 8 in
  (* S*(n'/rho(2S) - 1) = 2*(7/2 - 1) = 5 *)
  check "tree span lb s=2" 5 (Span.lower_bound t ~s:2);
  (* the span bound is sound against the optimum at a feasible S *)
  let opt = Optimal.rbw_io t ~s:3 in
  check_bool "sound" true (Span.lower_bound t ~s:3 <= opt)

let test_span_guards () =
  Alcotest.check_raises "too large"
    (Optimal.Too_large "Span.s_span: more than 20 vertices") (fun () ->
      ignore (Span.s_span (Dmc_gen.Shapes.diamond ~rows:5 ~cols:5) ~s:4));
  Alcotest.check_raises "s positive"
    (Invalid_argument "Span.s_span: s must be positive") (fun () ->
      ignore (Span.s_span (Dmc_gen.Shapes.chain 3) ~s:0))

let prop_span_sound =
  QCheck.Test.make ~name:"span bound below the optimum" ~count:12
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.gnp rng ~n:8 ~edge_prob:0.3 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 1 in
      Span.lower_bound g ~s <= Optimal.rbw_io g ~s)

let prop_span_monotone =
  QCheck.Test.make ~name:"span grows with the pebble budget" ~count:12
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.gnp rng ~n:8 ~edge_prob:0.3 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 1 in
      Span.s_span g ~s <= Span.s_span g ~s:(s + 2))

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_transform_span"
    [
      ( "transpose",
        [ Alcotest.test_case "duality counterexample" `Quick test_transpose_duality_fails ] );
      qsuite "transpose-props" [ prop_transpose_optima_close ];
      qsuite "union-props" [ prop_union_optimal_additive ];
      ( "span",
        [
          Alcotest.test_case "chain" `Quick test_span_chain;
          Alcotest.test_case "tree" `Quick test_span_tree;
          Alcotest.test_case "independent" `Quick test_span_independent;
          Alcotest.test_case "lower bound" `Quick test_span_lower_bound;
          Alcotest.test_case "guards" `Quick test_span_guards;
        ] );
      qsuite "span-props" [ prop_span_sound; prop_span_monotone ];
    ]
