(* Rule-level tests of the three pebble-game engines: hand-written
   valid and invalid move sequences with pinpointed failures. *)

module Cdag = Dmc_cdag.Cdag
module Rb = Dmc_core.Rb_game
module Rbw = Dmc_core.Rbw_game
module Prbw = Dmc_core.Prbw_game
module Hierarchy = Dmc_machine.Hierarchy

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let _ = check_bool

(* in -> mid -> out *)
let chain3 () = Dmc_gen.Shapes.chain 3

let expect_error ~step ~substr result =
  match result with
  | Ok _ -> Alcotest.fail "expected an invalid game"
  | Error (e : Rb.error) ->
      check "failing step" step e.Rb.step;
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      if not (contains substr e.Rb.reason) then
        Alcotest.fail (Printf.sprintf "reason %S lacks %S" e.Rb.reason substr)

let expect_prbw_error ~step ~substr result =
  match result with
  | Ok _ -> Alcotest.fail "expected an invalid game"
  | Error (e : Prbw.error) ->
      check "failing step" step e.Prbw.step;
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      if not (contains substr e.Prbw.reason) then
        Alcotest.fail (Printf.sprintf "reason %S lacks %S" e.Prbw.reason substr)

(* ------------------------------------------------------------------ *)
(* Red-blue (Hong-Kung) game                                           *)

let test_rb_valid_chain () =
  let g = chain3 () in
  match
    Rb.run g ~s:2 [ Rb.Load 0; Rb.Compute 1; Rb.Delete 0; Rb.Compute 2; Rb.Store 2 ]
  with
  | Ok stats ->
      check "io" 2 stats.Rb.io;
      check "loads" 1 stats.Rb.loads;
      check "stores" 1 stats.Rb.stores;
      check "computes" 2 stats.Rb.computes;
      check "peak red" 2 stats.Rb.max_red
  | Error e -> Alcotest.fail e.Rb.reason

let test_rb_load_needs_blue () =
  let g = chain3 () in
  expect_error ~step:0 ~substr:"no blue" (Rb.run g ~s:2 [ Rb.Load 1 ])

let test_rb_compute_needs_red_preds () =
  let g = chain3 () in
  expect_error ~step:0 ~substr:"predecessor" (Rb.run g ~s:2 [ Rb.Compute 1 ])

let test_rb_compute_rejects_inputs () =
  let g = chain3 () in
  expect_error ~step:0 ~substr:"inputs cannot fire" (Rb.run g ~s:2 [ Rb.Compute 0 ])

let test_rb_capacity () =
  let g = Dmc_gen.Shapes.independent 3 in
  let g = Cdag.retag g ~inputs:[ 0; 1; 2 ] ~outputs:[] in
  (* 3 inputs with S=2: the third load must fail *)
  expect_error ~step:2 ~substr:"no free red pebble"
    (Rb.run g ~s:2 [ Rb.Load 0; Rb.Load 1; Rb.Load 2 ])

let test_rb_store_needs_red () =
  let g = chain3 () in
  expect_error ~step:0 ~substr:"no red" (Rb.run g ~s:2 [ Rb.Store 0 ])

let test_rb_missing_output () =
  let g = chain3 () in
  (* all fires but no final store *)
  expect_error ~step:5 ~substr:"no blue pebble at the end"
    (Rb.run g ~s:2 [ Rb.Load 0; Rb.Compute 1; Rb.Delete 0; Rb.Compute 2; Rb.Delete 2 ])

let test_rb_recomputation_allowed () =
  let g = chain3 () in
  (* fire vertex 1, delete it, fire it again: legal under Hong-Kung *)
  match
    Rb.run g ~s:2
      [ Rb.Load 0; Rb.Compute 1; Rb.Delete 1; Rb.Compute 1; Rb.Delete 0;
        Rb.Compute 2; Rb.Store 2 ]
  with
  | Ok stats -> check "computes counts refires" 3 stats.Rb.computes
  | Error e -> Alcotest.fail e.Rb.reason

let test_rb_delete_needs_red () =
  let g = chain3 () in
  expect_error ~step:0 ~substr:"no red" (Rb.run g ~s:2 [ Rb.Delete 0 ])

let test_rb_bad_vertex () =
  let g = chain3 () in
  expect_error ~step:0 ~substr:"out of range" (Rb.run g ~s:2 [ Rb.Load 17 ])

(* ------------------------------------------------------------------ *)
(* Red-blue-white game                                                 *)

let test_rbw_forbids_recomputation () =
  let g = chain3 () in
  expect_error ~step:3 ~substr:"recomputation"
    (Rbw.run g ~s:2 [ Rbw.Load 0; Rbw.Compute 1; Rbw.Delete 1; Rbw.Compute 1 ])

let test_rbw_requires_all_white () =
  (* An input that is never loaded fails completion even if outputs are
     blue: every vertex needs a white pebble. *)
  let b = Cdag.Builder.create () in
  let i1 = Cdag.Builder.add_vertex b in
  let i2 = Cdag.Builder.add_vertex b in
  let o = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b i1 o;
  let g = Cdag.Builder.freeze ~inputs:[ i1; i2 ] ~outputs:[ o ] b in
  expect_error ~step:3 ~substr:"no white pebble"
    (Rbw.run g ~s:2 [ Rbw.Load i1; Rbw.Compute o; Rbw.Store o; ]);
  (* loading the stray input fixes it *)
  match
    Rbw.run g ~s:2
      [ Rbw.Load i1; Rbw.Compute o; Rbw.Store o; Rbw.Delete i1; Rbw.Load i2 ]
  with
  | Ok stats -> check "io" 3 stats.Rbw.io
  | Error e -> Alcotest.fail e.Rbw.reason

let test_rbw_untagged_source_fires_freely () =
  (* An untagged source (no input tag) fires with R3 and needs no load;
     untagged sinks need no store. *)
  let g = Cdag.retag (chain3 ()) ~inputs:[] ~outputs:[] in
  match Rbw.run g ~s:2 [ Rbw.Compute 0; Rbw.Compute 1; Rbw.Delete 0; Rbw.Compute 2 ] with
  | Ok stats -> check "zero io" 0 stats.Rbw.io
  | Error e -> Alcotest.fail e.Rbw.reason

let test_rbw_spill_reload () =
  let g = Cdag.retag (chain3 ()) ~inputs:[] ~outputs:[] in
  (* compute 0, spill it, compute it again -> must reload instead *)
  match
    Rbw.run g ~s:1
      [ Rbw.Compute 0; Rbw.Store 0; Rbw.Delete 0; Rbw.Load 0; Rbw.Delete 0 ]
  with
  | Error e ->
      (* vertex 1 never fired: completion must fail, but the
         store/reload moves themselves are legal *)
      check "fails only at completion" 5 e.Rbw.step
  | Ok _ -> Alcotest.fail "incomplete game accepted"

let test_rbw_rejects_bad_graph () =
  let g = Cdag.retag (chain3 ()) ~inputs:[ 1 ] ~outputs:[] in
  Alcotest.check_raises "input with predecessor"
    (Invalid_argument "Rbw_game.run: graph violates the RBW convention") (fun () ->
      ignore (Rbw.run g ~s:2 []))

let test_rbw_io_of () =
  let g = chain3 () in
  let moves = [ Rbw.Load 0; Rbw.Compute 1; Rbw.Delete 0; Rbw.Compute 2; Rbw.Store 2 ] in
  check "io_of" 2 (Rbw.io_of g ~s:2 moves);
  Alcotest.check_raises "io_of invalid"
    (Failure "invalid RBW game at step 0: compute 1: predecessor 0 not red")
    (fun () -> ignore (Rbw.io_of g ~s:2 [ Rbw.Compute 1 ]))

(* ------------------------------------------------------------------ *)
(* Mutation testing of the rule engine: damaging a valid game must be
   detected.                                                           *)

let prop_dropping_a_compute_invalidates =
  QCheck.Test.make ~name:"dropping any compute invalidates the game" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Dmc_util.Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:3 ~edge_prob:0.5 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 2 in
      let moves = Dmc_core.Strategy.schedule g ~s in
      let indices =
        List.mapi (fun i m -> (i, m)) moves
        |> List.filter_map (fun (i, m) ->
               match m with Rbw.Compute _ -> Some i | _ -> None)
      in
      List.for_all
        (fun drop ->
          let mutated = List.filteri (fun i _ -> i <> drop) moves in
          Rbw.validate g ~s mutated <> None)
        indices)

let prop_dropping_a_load_invalidates =
  QCheck.Test.make ~name:"dropping any load invalidates the game" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Dmc_util.Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:3 ~edge_prob:0.5 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 2 in
      let moves = Dmc_core.Strategy.schedule g ~s in
      let indices =
        List.mapi (fun i m -> (i, m)) moves
        |> List.filter_map (fun (i, m) ->
               match m with Rbw.Load _ -> Some i | _ -> None)
      in
      (* a Belady schedule loads a value only when something needs it:
         removing any load breaks a later compute or the white rule *)
      List.for_all
        (fun drop ->
          let mutated = List.filteri (fun i _ -> i <> drop) moves in
          Rbw.validate g ~s mutated <> None)
        indices)

let test_swapping_compute_before_operand_detected () =
  let g = chain3 () in
  (* valid: load 0; compute 1 ... — swapped: compute 1 before load 0 *)
  let swapped = [ Rbw.Compute 1; Rbw.Load 0; Rbw.Compute 2; Rbw.Store 2 ] in
  match Rbw.validate g ~s:3 swapped with
  | Some e -> check "fails at the premature compute" 0 e.Rbw.step
  | None -> Alcotest.fail "premature compute accepted"

(* ------------------------------------------------------------------ *)
(* Parallel RBW game                                                   *)

let two_node_hier () =
  (* 2 processors, each with 4 registers and its own memory of 64. *)
  Hierarchy.create
    [ { Hierarchy.count = 2; capacity = 4 }; { Hierarchy.count = 2; capacity = 64 } ]

let test_prbw_valid_game () =
  let g = chain3 () in
  let h = two_node_hier () in
  let moves =
    [
      Prbw.Input { unit_id = 0; v = 0 };
      Prbw.Move_up { level = 1; unit_id = 0; v = 0 };
      Prbw.Compute { proc = 0; v = 1 };
      Prbw.Compute { proc = 0; v = 2 };
      Prbw.Move_down { level = 2; unit_id = 0; v = 2 };
      Prbw.Output { unit_id = 0; v = 2 };
    ]
  in
  match Prbw.run h g moves with
  | Ok stats ->
      check "loads" 1 stats.Prbw.loads;
      check "stores" 1 stats.Prbw.stores;
      check "no remote gets" 0 stats.Prbw.remote_gets;
      check "move up level 1" 1 stats.Prbw.move_up.(0);
      check "move down level 2" 1 stats.Prbw.move_down.(1);
      check "boundary 2 traffic" 2 (Prbw.boundary_traffic stats ~level:2);
      check "computes on proc 0" 2 stats.Prbw.computes_per_proc.(0)
  | Error e -> Alcotest.fail e.Prbw.reason

let test_prbw_remote_get () =
  let g = chain3 () in
  let h = two_node_hier () in
  (* input lands in memory 1, processor 0 computes: needs a remote get *)
  let moves =
    [
      Prbw.Input { unit_id = 1; v = 0 };
      Prbw.Remote_get { src = 1; dst = 0; v = 0 };
      Prbw.Move_up { level = 1; unit_id = 0; v = 0 };
      Prbw.Compute { proc = 0; v = 1 };
      Prbw.Compute { proc = 0; v = 2 };
      Prbw.Move_down { level = 2; unit_id = 0; v = 2 };
      Prbw.Output { unit_id = 0; v = 2 };
    ]
  in
  match Prbw.run h g moves with
  | Ok stats ->
      check "one remote get" 1 stats.Prbw.remote_gets;
      check "received by unit 0" 1 stats.Prbw.remote_gets_per_unit.(0)
  | Error e -> Alcotest.fail e.Prbw.reason

let test_prbw_remote_get_requires_presence () =
  let g = chain3 () in
  let h = two_node_hier () in
  expect_prbw_error ~step:0 ~substr:"not present"
    (Prbw.run h g [ Prbw.Remote_get { src = 1; dst = 0; v = 0 } ])

let test_prbw_compute_needs_local_registers () =
  let g = chain3 () in
  let h = two_node_hier () in
  (* operand in proc 0's registers; proc 1 cannot fire with it *)
  expect_prbw_error ~step:2 ~substr:"registers"
    (Prbw.run h g
       [
         Prbw.Input { unit_id = 0; v = 0 };
         Prbw.Move_up { level = 1; unit_id = 0; v = 0 };
         Prbw.Compute { proc = 1; v = 1 };
       ])

let test_prbw_move_up_needs_parent () =
  let g = chain3 () in
  let h = two_node_hier () in
  expect_prbw_error ~step:0 ~substr:"lacks it"
    (Prbw.run h g [ Prbw.Move_up { level = 1; unit_id = 0; v = 0 } ])

let test_prbw_capacity () =
  let g = Cdag.retag (Dmc_gen.Shapes.independent 6) ~inputs:[ 0; 1; 2; 3; 4; 5 ] ~outputs:[] in
  let h = Hierarchy.create
      [ { Hierarchy.count = 1; capacity = 2 }; { Hierarchy.count = 1; capacity = 4 } ]
  in
  (* the fifth Input overflows the level-2 unit of capacity 4 *)
  let moves = List.init 5 (fun i -> Prbw.Input { unit_id = 0; v = i }) in
  expect_prbw_error ~step:4 ~substr:"full" (Prbw.run h g moves)

let test_prbw_no_recomputation () =
  let g = Cdag.retag (chain3 ()) ~inputs:[] ~outputs:[] in
  let h = two_node_hier () in
  expect_prbw_error ~step:2 ~substr:"recomputation"
    (Prbw.run h g
       [
         Prbw.Compute { proc = 0; v = 0 };
         Prbw.Delete { level = 1; unit_id = 0; v = 0 };
         Prbw.Compute { proc = 0; v = 0 };
       ])

let test_prbw_embed_sequential () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  let s1 = 4 in
  let h = Hierarchy.create
      [ { Hierarchy.count = 2; capacity = s1 }; { Hierarchy.count = 1; capacity = 100000 } ]
  in
  let seq = Dmc_core.Strategy.schedule g ~s:s1 in
  let seq_stats =
    match Rbw.run g ~s:s1 seq with Ok s -> s | Error e -> Alcotest.fail e.Rbw.reason
  in
  (* embed on processor 1 of 2 *)
  let par = Prbw.embed_sequential h ~proc:1 seq in
  match Prbw.run h g par with
  | Ok stats ->
      check "loads preserved" seq_stats.Rbw.loads stats.Prbw.loads;
      check "stores preserved" seq_stats.Rbw.stores stats.Prbw.stores;
      check "all computes on proc 1" seq_stats.Rbw.computes stats.Prbw.computes_per_proc.(1);
      check "boundary traffic matches sequential io"
        (seq_stats.Rbw.loads + seq_stats.Rbw.stores)
        (Prbw.boundary_traffic stats ~level:2)
  | Error e -> Alcotest.fail e.Prbw.reason

let prop_embed_any_schedule =
  QCheck.Test.make ~name:"embedded sequential games stay valid" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Dmc_util.Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:3 ~edge_prob:0.5 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 2 in
      let h = Hierarchy.create
          [ { Hierarchy.count = 1; capacity = s };
            { Hierarchy.count = 1; capacity = 100000 } ]
      in
      let seq = Dmc_core.Strategy.schedule g ~s in
      match Prbw.run h g (Prbw.embed_sequential h ~proc:0 seq) with
      | Ok _ -> true
      | Error _ -> false)


(* ------------------------------------------------------------------ *)
(* Multi-processor game (Mp_game)                                      *)

module Mp = Dmc_core.Mp_game
module Pc = Dmc_core.Pc_game
module Strategy = Dmc_core.Strategy

let expect_mp_error ~step ~substr result =
  match result with
  | Ok _ -> Alcotest.fail "expected an invalid game"
  | Error (e : Mp.error) ->
      check "failing step" step e.Mp.step;
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      if not (contains substr e.Mp.reason) then
        Alcotest.fail (Printf.sprintf "reason %S lacks %S" e.Mp.reason substr)

let expect_pc_error ~step ~substr result =
  match result with
  | Ok _ -> Alcotest.fail "expected an invalid game"
  | Error (e : Pc.error) ->
      check "failing step" step e.Pc.step;
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      if not (contains substr e.Pc.reason) then
        Alcotest.fail (Printf.sprintf "reason %S lacks %S" e.Pc.reason substr)

(* A value crossing processors must travel through slow memory:
   proc 0 computes the middle of the chain, proc 1 finishes it. *)
let test_mp_valid_cross_proc () =
  let g = chain3 () in
  match
    Mp.run g ~p:2 ~s:2
      [
        Mp.Load { proc = 0; v = 0 };
        Mp.Compute { proc = 0; v = 1 };
        Mp.Store { proc = 0; v = 1 };
        Mp.Load { proc = 1; v = 1 };
        Mp.Compute { proc = 1; v = 2 };
        Mp.Store { proc = 1; v = 2 };
      ]
  with
  | Ok stats ->
      check "loads" 2 stats.Mp.loads;
      check "stores" 2 stats.Mp.stores;
      check "io" 4 stats.Mp.io;
      check "proc 0 io" 2 stats.Mp.per_proc_io.(0);
      check "proc 1 io" 2 stats.Mp.per_proc_io.(1);
      check "proc 0 computes" 1 stats.Mp.per_proc_computes.(0);
      check "proc 1 computes" 1 stats.Mp.per_proc_computes.(1);
      check "peak red on one proc" 2 stats.Mp.max_red;
      (* proc 0: load(1) compute(2) store(3); proc 1 waits for the
         store's availability time: load lands at 4, compute 5, store 6 *)
      check "makespan" 6 stats.Mp.makespan
  | Error e -> Alcotest.fail e.Mp.reason

let test_mp_capacity_per_proc () =
  let g = chain3 () in
  expect_mp_error ~step:1 ~substr:"no free red pebble on processor 0"
    (Mp.run g ~p:2 ~s:1
       [ Mp.Load { proc = 0; v = 0 }; Mp.Compute { proc = 0; v = 1 } ])

let test_mp_load_needs_communication () =
  let g = chain3 () in
  (* proc 0 computed vertex 1 but never stored it: proc 1 cannot read
     a value that was never communicated *)
  expect_mp_error ~step:2 ~substr:"never communicated"
    (Mp.run g ~p:2 ~s:2
       [
         Mp.Load { proc = 0; v = 0 };
         Mp.Compute { proc = 0; v = 1 };
         Mp.Load { proc = 1; v = 1 };
       ])

let test_mp_no_recompute () =
  let g = chain3 () in
  expect_mp_error ~step:2 ~substr:"recomputation forbidden"
    (Mp.run g ~p:2 ~s:3
       [
         Mp.Load { proc = 0; v = 0 };
         Mp.Compute { proc = 0; v = 1 };
         Mp.Compute { proc = 0; v = 1 };
       ])

let test_mp_compute_needs_local_preds () =
  let g = chain3 () in
  (* the operand is red on proc 0, not on proc 1 where the compute fires *)
  expect_mp_error ~step:2 ~substr:"not red on processor 1"
    (Mp.run g ~p:2 ~s:2
       [
         Mp.Load { proc = 0; v = 0 };
         Mp.Compute { proc = 0; v = 1 };
         Mp.Compute { proc = 1; v = 2 };
       ])

let test_mp_proc_out_of_range () =
  let g = chain3 () in
  expect_mp_error ~step:0 ~substr:"processor 5 out of range"
    (Mp.run g ~p:2 ~s:2 [ Mp.Load { proc = 5; v = 0 } ])

let test_mp_store_needs_local_red () =
  let g = chain3 () in
  expect_mp_error ~step:1 ~substr:"no red pebble on processor 1"
    (Mp.run g ~p:2 ~s:2
       [ Mp.Load { proc = 0; v = 0 }; Mp.Store { proc = 1; v = 0 } ])

let test_mp_unused_input_must_be_read () =
  (* 0 -> 2 with 1 an input nothing consumes: the white-pebble
     completion convention still demands it be loaded once, keeping
     the io floor a sound lower bound for the game *)
  let b = Cdag.Builder.create () in
  let v0 = Cdag.Builder.add_vertex b in
  let v1 = Cdag.Builder.add_vertex b in
  let v2 = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b v0 v2;
  let g = Cdag.Builder.freeze ~inputs:[ v0; v1 ] ~outputs:[ v2 ] b in
  expect_mp_error ~step:3 ~substr:"never loaded"
    (Mp.run g ~p:2 ~s:2
       [
         Mp.Load { proc = 0; v = v0 };
         Mp.Compute { proc = 0; v = v2 };
         Mp.Store { proc = 0; v = v2 };
       ])

let test_mp_schedule_roundtrip () =
  let g = Dmc_gen.Workload.parse_exn "jacobi1d:16,4" in
  List.iter
    (fun p ->
      let moves = Strategy.mp_schedule g ~p ~s:6 in
      match Mp.run g ~p ~s:6 moves with
      | Ok stats ->
          check
            (Printf.sprintf "mp_io agrees with the replay at p=%d" p)
            stats.Mp.io
            (Strategy.mp_io g ~p ~s:6)
      | Error e ->
          Alcotest.fail
            (Printf.sprintf "p=%d rejected at step %d: %s" p e.Mp.step
               e.Mp.reason))
    [ 1; 2; 3; 4 ]

let test_mp_p1_matches_sequential () =
  let g = Dmc_gen.Workload.parse_exn "fft:4" in
  check "p=1 io equals the sequential schedule's"
    (Dmc_core.Strategy.io g ~s:6)
    (Strategy.mp_io g ~p:1 ~s:6)

(* ------------------------------------------------------------------ *)
(* Partial-computation game (Pc_game)                                  *)

let tree2 () = Dmc_gen.Shapes.reduction_tree 2

let test_pc_valid_accumulate () =
  let g = tree2 () in
  match
    Pc.run g ~s:2
      [
        Pc.Load 0;
        Pc.Begin 2;
        Pc.Absorb { v = 2; pred = 0 };
        Pc.Delete 0;
        Pc.Load 1;
        Pc.Absorb { v = 2; pred = 1 };
        Pc.Finish 2;
        Pc.Store 2;
      ]
  with
  | Ok stats ->
      check "loads" 2 stats.Pc.loads;
      check "stores" 1 stats.Pc.stores;
      check "absorbs" 2 stats.Pc.absorbs;
      check "finishes" 1 stats.Pc.finishes;
      (* the paper's point: in-degree 2 fired with only 2 red pebbles *)
      check "two red pebbles sufficed" 2 stats.Pc.max_red
  | Error e -> Alcotest.fail e.Pc.reason

let test_pc_store_partial_forbidden () =
  let g = tree2 () in
  expect_pc_error ~step:2 ~substr:"partial values cannot be stored"
    (Pc.run g ~s:3 [ Pc.Load 0; Pc.Begin 2; Pc.Store 2 ])

let test_pc_absorb_rules () =
  let g = tree2 () in
  (* not a predecessor: absorbing 1 into an accumulator for... itself *)
  expect_pc_error ~step:3 ~substr:"already absorbed"
    (Pc.run g ~s:3
       [
         Pc.Load 0;
         Pc.Begin 2;
         Pc.Absorb { v = 2; pred = 0 };
         Pc.Absorb { v = 2; pred = 0 };
       ]);
  expect_pc_error ~step:2 ~substr:"operand not red"
    (Pc.run g ~s:3 [ Pc.Load 0; Pc.Begin 2; Pc.Absorb { v = 2; pred = 1 } ])

let test_pc_finish_needs_all_preds () =
  let g = tree2 () in
  expect_pc_error ~step:3 ~substr:"only 1 of 2 predecessors absorbed"
    (Pc.run g ~s:3
       [ Pc.Load 0; Pc.Begin 2; Pc.Absorb { v = 2; pred = 0 }; Pc.Finish 2 ])

let test_pc_no_recompute () =
  let g = tree2 () in
  expect_pc_error ~step:8 ~substr:"recomputation forbidden"
    (Pc.run g ~s:3
       [
         Pc.Load 0;
         Pc.Load 1;
         Pc.Begin 2;
         Pc.Absorb { v = 2; pred = 0 };
         Pc.Absorb { v = 2; pred = 1 };
         Pc.Finish 2;
         Pc.Store 2;
         Pc.Delete 2;
         Pc.Begin 2;
       ])

let test_pc_delete_resets_accumulator () =
  let g = tree2 () in
  (* deleting an in-progress accumulator discards its partial sums;
     beginning again from scratch is legal and must re-absorb *)
  match
    Pc.run g ~s:3
      [
        Pc.Load 0;
        Pc.Load 1;
        Pc.Begin 2;
        Pc.Absorb { v = 2; pred = 0 };
        Pc.Delete 2;
        Pc.Begin 2;
        Pc.Absorb { v = 2; pred = 0 };
        Pc.Absorb { v = 2; pred = 1 };
        Pc.Finish 2;
        Pc.Store 2;
      ]
  with
  | Ok stats -> check "absorbs counted across both attempts" 3 stats.Pc.absorbs
  | Error e -> Alcotest.fail e.Pc.reason

let test_pc_any_indegree_with_two_pebbles () =
  (* a 6-ary accumulation: the classic R3 would need 7 red pebbles *)
  let b = Cdag.Builder.create () in
  let ins = Array.init 6 (fun _ -> Cdag.Builder.add_vertex b) in
  let acc = Cdag.Builder.add_vertex b in
  Array.iter (fun i -> Cdag.Builder.add_edge b i acc) ins;
  let g =
    Cdag.Builder.freeze ~inputs:(Array.to_list ins) ~outputs:[ acc ] b
  in
  let moves =
    Pc.Begin acc
    :: (Array.to_list ins
       |> List.concat_map (fun i ->
              [ Pc.Load i; Pc.Absorb { v = acc; pred = i }; Pc.Delete i ]))
    @ [ Pc.Finish acc; Pc.Store acc ]
  in
  match Pc.run g ~s:2 moves with
  | Ok stats -> check "peak red" 2 stats.Pc.max_red
  | Error e -> Alcotest.fail e.Pc.reason

let test_pc_schedule_roundtrip () =
  let g = Dmc_gen.Workload.parse_exn "tree:16" in
  let moves = Strategy.pc_schedule g ~s:3 in
  match Pc.run g ~s:3 moves with
  | Ok stats ->
      check "pc_io agrees with the replay" stats.Pc.io
        (Strategy.pc_io g ~s:3)
  | Error e ->
      Alcotest.fail
        (Printf.sprintf "rejected at step %d: %s" e.Pc.step e.Pc.reason)

let prop_mp_schedule_valid =
  QCheck.Test.make ~name:"mp schedules replay cleanly at any p" ~count:30
    QCheck.(pair (int_bound 100_000) (int_range 1 4))
    (fun (seed, p) ->
      let rng = Dmc_util.Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:3 ~edge_prob:0.5 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 2 in
      match Mp.run g ~p ~s (Strategy.mp_schedule g ~p ~s) with
      | Ok _ -> true
      | Error _ -> false)

let prop_pc_schedule_valid =
  QCheck.Test.make ~name:"pc schedules replay cleanly" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Dmc_util.Rng.create seed in
      let g =
        Dmc_gen.Random_dag.daggen rng ~n:40 ~fat:0.5 ~density:0.4 ~ccr:2
      in
      match Pc.run g ~s:4 (Strategy.pc_schedule g ~s:4) with
      | Ok _ -> true
      | Error _ -> false)

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_games"
    [
      ( "rb",
        [
          Alcotest.test_case "valid chain game" `Quick test_rb_valid_chain;
          Alcotest.test_case "load needs blue" `Quick test_rb_load_needs_blue;
          Alcotest.test_case "compute needs red preds" `Quick test_rb_compute_needs_red_preds;
          Alcotest.test_case "inputs cannot fire" `Quick test_rb_compute_rejects_inputs;
          Alcotest.test_case "capacity enforced" `Quick test_rb_capacity;
          Alcotest.test_case "store needs red" `Quick test_rb_store_needs_red;
          Alcotest.test_case "missing output detected" `Quick test_rb_missing_output;
          Alcotest.test_case "recomputation allowed" `Quick test_rb_recomputation_allowed;
          Alcotest.test_case "delete needs red" `Quick test_rb_delete_needs_red;
          Alcotest.test_case "bad vertex" `Quick test_rb_bad_vertex;
        ] );
      ( "rbw",
        [
          Alcotest.test_case "forbids recomputation" `Quick test_rbw_forbids_recomputation;
          Alcotest.test_case "requires all white" `Quick test_rbw_requires_all_white;
          Alcotest.test_case "untagged sources fire freely" `Quick
            test_rbw_untagged_source_fires_freely;
          Alcotest.test_case "spill and reload" `Quick test_rbw_spill_reload;
          Alcotest.test_case "rejects bad graphs" `Quick test_rbw_rejects_bad_graph;
          Alcotest.test_case "io_of" `Quick test_rbw_io_of;
        ] );
      ( "prbw",
        [
          Alcotest.test_case "valid game" `Quick test_prbw_valid_game;
          Alcotest.test_case "remote get" `Quick test_prbw_remote_get;
          Alcotest.test_case "remote get requires presence" `Quick
            test_prbw_remote_get_requires_presence;
          Alcotest.test_case "compute needs local registers" `Quick
            test_prbw_compute_needs_local_registers;
          Alcotest.test_case "move up needs parent" `Quick test_prbw_move_up_needs_parent;
          Alcotest.test_case "capacity enforced" `Quick test_prbw_capacity;
          Alcotest.test_case "no recomputation" `Quick test_prbw_no_recomputation;
          Alcotest.test_case "embed sequential" `Quick test_prbw_embed_sequential;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "swapped compute detected" `Quick
            test_swapping_compute_before_operand_detected;
        ] );
      qsuite "mutation-props"
        [ prop_dropping_a_compute_invalidates; prop_dropping_a_load_invalidates ];
      ( "mp",
        [
          Alcotest.test_case "valid cross-processor game" `Quick
            test_mp_valid_cross_proc;
          Alcotest.test_case "per-processor capacity" `Quick
            test_mp_capacity_per_proc;
          Alcotest.test_case "load needs prior communication" `Quick
            test_mp_load_needs_communication;
          Alcotest.test_case "no recomputation" `Quick test_mp_no_recompute;
          Alcotest.test_case "compute needs local operands" `Quick
            test_mp_compute_needs_local_preds;
          Alcotest.test_case "processor out of range" `Quick
            test_mp_proc_out_of_range;
          Alcotest.test_case "store needs local red" `Quick
            test_mp_store_needs_local_red;
          Alcotest.test_case "unused inputs must be read" `Quick
            test_mp_unused_input_must_be_read;
          Alcotest.test_case "schedule round-trip" `Quick
            test_mp_schedule_roundtrip;
          Alcotest.test_case "p=1 matches sequential" `Quick
            test_mp_p1_matches_sequential;
        ] );
      ( "pc",
        [
          Alcotest.test_case "valid accumulation" `Quick test_pc_valid_accumulate;
          Alcotest.test_case "partial values cannot be stored" `Quick
            test_pc_store_partial_forbidden;
          Alcotest.test_case "absorb rules" `Quick test_pc_absorb_rules;
          Alcotest.test_case "finish needs all predecessors" `Quick
            test_pc_finish_needs_all_preds;
          Alcotest.test_case "no recomputation" `Quick test_pc_no_recompute;
          Alcotest.test_case "delete resets the accumulator" `Quick
            test_pc_delete_resets_accumulator;
          Alcotest.test_case "any in-degree with two pebbles" `Quick
            test_pc_any_indegree_with_two_pebbles;
          Alcotest.test_case "schedule round-trip" `Quick
            test_pc_schedule_roundtrip;
        ] );
      qsuite "prbw-props" [ prop_embed_any_schedule ];
      qsuite "mp-pc-props" [ prop_mp_schedule_valid; prop_pc_schedule_valid ];
    ]
