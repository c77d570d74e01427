(* Tests for the cache/hierarchy simulator and the block partitioner. *)

module Cache = Dmc_sim.Cache
module Hier_sim = Dmc_sim.Hier_sim
module Exec = Dmc_sim.Exec
module Partitioner = Dmc_sim.Partitioner
module Cdag = Dmc_cdag.Cdag
module Rng = Dmc_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Alcotest.(check (option int)) "insert 1" None
    (Option.map (fun (e : Cache.eviction) -> e.Cache.key) (Cache.insert c 1));
  ignore (Cache.insert c 2);
  (* touching 1 makes 2 the LRU victim *)
  check_bool "touch hit" true (Cache.touch c 1);
  (match Cache.insert c 3 with
  | Some e -> check "victim is 2" 2 e.Cache.key
  | None -> Alcotest.fail "expected an eviction");
  check "size" 2 (Cache.size c);
  check_bool "1 still present" true (Cache.mem c 1);
  check_bool "2 gone" false (Cache.mem c 2)

let test_cache_dirty_bits () =
  let c = Cache.create ~capacity:1 in
  ignore (Cache.insert c ~dirty:true 7);
  (match Cache.insert c 8 with
  | Some e ->
      check "victim" 7 e.Cache.key;
      check_bool "dirty carried" true e.Cache.dirty
  | None -> Alcotest.fail "expected eviction");
  match Cache.remove c 8 with
  | Some e -> check_bool "clean insert stays clean" false e.Cache.dirty
  | None -> Alcotest.fail "remove failed"

let test_cache_refresh_no_evict () =
  let c = Cache.create ~capacity:2 in
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  (* re-inserting a resident key never evicts *)
  Alcotest.(check bool) "no eviction on refresh" true (Cache.insert c 1 = None);
  check "size stable" 2 (Cache.size c)

let test_cache_iter_order () =
  let c = Cache.create ~capacity:3 in
  List.iter (fun k -> ignore (Cache.insert c k)) [ 1; 2; 3 ];
  check_bool "touch 1" true (Cache.touch c 1);
  let order = ref [] in
  Cache.iter (fun k ~dirty:_ -> order := k :: !order) c;
  (* LRU-to-MRU: 2, 3, 1 *)
  Alcotest.(check (list int)) "lru order" [ 1; 3; 2 ] !order

(* ------------------------------------------------------------------ *)
(* Hier_sim                                                            *)

let test_hier_cold_misses () =
  let h = Hier_sim.create ~capacities:[| 2; 8 |] () in
  Hier_sim.read h 0;
  Hier_sim.read h 1;
  (* both cold: 2 words across each boundary *)
  Alcotest.(check (array int)) "cold traffic" [| 2; 2 |] (Hier_sim.traffic h);
  (* re-reads hit L1: no new traffic *)
  Hier_sim.read h 0;
  Hier_sim.read h 1;
  Alcotest.(check (array int)) "hits free" [| 2; 2 |] (Hier_sim.traffic h)

let test_hier_l2_hit () =
  let h = Hier_sim.create ~capacities:[| 1; 8 |] () in
  Hier_sim.read h 0;
  Hier_sim.read h 1;   (* evicts 0 from L1; 0 stays in L2 *)
  Hier_sim.read h 0;   (* L2 hit: boundary-1 fill only *)
  let t = Hier_sim.traffic h in
  check "boundary 1 fills" 3 t.(0);
  check "boundary 2 fills" 2 t.(1)

let test_hier_writeback () =
  let h = Hier_sim.create ~capacities:[| 1; 8 |] () in
  Hier_sim.write h 42;          (* dirty in L1, no traffic *)
  Alcotest.(check (array int)) "write allocates silently" [| 0; 0 |] (Hier_sim.traffic h);
  Hier_sim.read h 1;            (* evicts dirty 42 -> writeback to L2 *)
  let t = Hier_sim.traffic h in
  check "boundary 1 = fill + writeback" 2 t.(0);
  check "boundary 2 = fill only" 1 t.(1);
  check_bool "42 now in L2" true (Hier_sim.contains h ~level:2 42);
  Hier_sim.flush h;
  let t = Hier_sim.traffic h in
  (* flush pushes dirty 42 (and dirty copy in L2) to the backing store *)
  check_bool "flush wrote back" true (t.(1) >= 2)

let test_hier_errors () =
  Alcotest.check_raises "no levels" (Invalid_argument "Hier_sim.create: no levels")
    (fun () -> ignore (Hier_sim.create ~capacities:[||] ()));
  let h = Hier_sim.create ~capacities:[| 2 |] () in
  Alcotest.check_raises "bad level" (Invalid_argument "Hier_sim.contains: level out of range")
    (fun () -> ignore (Hier_sim.contains h ~level:2 0))

(* scanning a working set larger than L1 but within L2 costs boundary-1
   traffic on every pass but boundary-2 traffic only once *)
let test_hier_capacity_wall () =
  let h = Hier_sim.create ~capacities:[| 4; 64 |] () in
  for _pass = 1 to 3 do
    for k = 0 to 15 do
      Hier_sim.read h k
    done
  done;
  let t = Hier_sim.traffic h in
  check "L1 misses every pass" (3 * 16) t.(0);
  check "L2 cold only" 16 t.(1)

let test_hier_exclusive_victim_cache () =
  let h = Hier_sim.create ~policy:Hier_sim.Exclusive ~capacities:[| 1; 8 |] () in
  Hier_sim.read h 0;
  (* exclusive: the line lives in L1 only *)
  check_bool "not in L2" false (Hier_sim.contains h ~level:2 0);
  Hier_sim.read h 1;
  (* the clean victim migrates into L2 *)
  check_bool "victim cached" true (Hier_sim.contains h ~level:2 0);
  Hier_sim.read h 0;
  (* served from the victim cache: no new memory traffic *)
  let t = Hier_sim.traffic h in
  check "memory boundary cold only" 2 t.(1);
  (* and the L2 copy moved back in *)
  check_bool "removed from L2 on hit" false (Hier_sim.contains h ~level:2 0)

let test_hier_exclusive_aggregates_capacity () =
  (* working set of 6 over caps [2; 4]: exclusive aggregates to 6 and
     stops missing to memory after the cold pass; inclusive is bounded
     by the L2 capacity of 4 and keeps missing *)
  let run policy =
    let h = Hier_sim.create ~policy ~capacities:[| 2; 4 |] () in
    for _pass = 1 to 4 do
      for k = 0 to 5 do
        Hier_sim.read h k
      done
    done;
    (Hier_sim.traffic h).(1)
  in
  let inclusive = run Hier_sim.Inclusive and exclusive = run Hier_sim.Exclusive in
  check "exclusive cold only" 6 exclusive;
  check_bool "inclusive keeps missing" true (inclusive > 6)

(* ------------------------------------------------------------------ *)
(* Partitioner                                                         *)

let test_block_owner () =
  let owner = Partitioner.block_owner ~dims:[ 8; 8 ] ~blocks:[ 2; 2 ] in
  check "NW" 0 (owner [ 0; 0 ]);
  check "NE" 1 (owner [ 0; 7 ]);
  check "SW" 2 (owner [ 7; 0 ]);
  check "SE" 3 (owner [ 4; 4 ]);
  (* uneven split: 7 points in 2 blocks -> 4 + 3 *)
  let owner7 = Partitioner.block_owner ~dims:[ 7 ] ~blocks:[ 2 ] in
  check "first chunk" 0 (owner7 [ 3 ]);
  check "second chunk" 1 (owner7 [ 4 ]);
  Alcotest.check_raises "bad coord"
    (Invalid_argument "Partitioner.block_owner: coordinate out of range") (fun () ->
      ignore (owner [ 8; 0 ]))

let test_ghost_words_1d () =
  (* 8 points, 2 blocks, star: points 3 and 4 each cross once *)
  check "1d ghosts" 2 (Partitioner.ghost_words ~dims:[ 8 ] ~blocks:[ 2 ] ~star:true)

let test_ghost_words_2d () =
  (* 8x8 in 2x2 star blocks: each internal face has 8 crossing pairs,
     2 faces x 2 directions = 32 *)
  check "2d star ghosts" 32
    (Partitioner.ghost_words ~dims:[ 8; 8 ] ~blocks:[ 2; 2 ] ~star:true);
  (* box adds the diagonal corner exchanges *)
  check_bool "box adds corners" true
    (Partitioner.ghost_words ~dims:[ 8; 8 ] ~blocks:[ 2; 2 ] ~star:false > 32)

let test_ghost_words_single_block () =
  check "no partition no ghosts" 0
    (Partitioner.ghost_words ~dims:[ 8; 8 ] ~blocks:[ 1; 1 ] ~star:true)

(* ------------------------------------------------------------------ *)
(* Exec                                                                *)

let test_exec_sequential_tree () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  let order = Dmc_core.Strategy.default_order g in
  let r = Exec.run g ~order (Exec.sequential ~capacities:[| 4; 1024 |]) in
  check "computed all" 7 r.Exec.computed;
  check_bool "some traffic" true (r.Exec.vertical.(0).(0) > 0);
  check "no horizontal on one node" 0 r.Exec.horizontal_total;
  (* L1 traffic >= leaf loads *)
  check_bool "at least the leaves" true (r.Exec.vertical.(0).(0) >= 8)

let test_exec_large_cache_cold_only () =
  let g = Dmc_gen.Shapes.reduction_tree 8 in
  let order = Dmc_core.Strategy.default_order g in
  let r = Exec.run g ~order (Exec.sequential ~capacities:[| 1024 |]) in
  (* everything fits: traffic = cold loads of 8 leaves + flush of all
     15 produced-or-loaded... leaves are clean, computes dirty *)
  check "cold loads + dirty flush" (8 + 7) r.Exec.vertical.(0).(0)

let test_exec_multinode_ghosts () =
  let n = 8 and steps = 2 in
  let st = Dmc_gen.Stencil.jacobi ~shape:Dmc_gen.Stencil.Star ~dims:[ n; n ] ~steps () in
  let npts = n * n in
  let owner_pt = Partitioner.block_owner ~dims:[ n; n ] ~blocks:[ 2; 2 ] in
  let owner v = owner_pt (Dmc_gen.Grid.coord st.Dmc_gen.Stencil.grid (v mod npts)) in
  let r =
    Exec.run st.Dmc_gen.Stencil.graph
      ~order:(Dmc_gen.Stencil.natural_order st)
      { Exec.capacities = [| 16; 4096 |]; nodes = 4; owner }
  in
  check "ghost words"
    (Partitioner.ghost_words ~dims:[ n; n ] ~blocks:[ 2; 2 ] ~star:true * steps)
    r.Exec.horizontal_total;
  check "per-node sums to total" r.Exec.horizontal_total
    (Array.fold_left ( + ) 0 r.Exec.horizontal_in)

let test_exec_rejects_bad_order () =
  let g = Dmc_gen.Shapes.chain 4 in
  Alcotest.check_raises "not topological" (Invalid_argument "Exec.run: order is not topological")
    (fun () ->
      ignore (Exec.run g ~order:[| 3; 2; 1 |] (Exec.sequential ~capacities:[| 4 |])))

(* ------------------------------------------------------------------ *)
(* Sim_game: the simulator as an explicit, rule-checked game player    *)

(* The oracle for "an LRU execution is one way to play the RBW game":
   [of_execution] replays a compute order through a single-level LRU
   cache of capacity [s] and emits the matching move sequence (fills
   become loads, dirty write-backs stores, evictions deletes).  Its
   I/O must equal the traffic [Exec.run] reports, word for word, and
   its moves must replay through [Rbw_game.run].  Unused inputs are
   loaded once at the end (the white-pebble completion rule).  Raises
   [Failure] when [s] is below the largest in-degree plus one. *)
module Sim_game = struct
  module Bitset = Dmc_util.Bitset

  type result = { moves : Dmc_core.Rbw_game.move list; io : int }

  let of_execution g ~order ~s =
    let n = Cdag.n_vertices g in
    let cache = Cache.create ~capacity:s in
    let blue = Bitset.create n in
    List.iter (Bitset.add blue) (Cdag.inputs g);
    let touched_input = Bitset.create n in
    let moves = ref [] in
    let io = ref 0 in
    let emit m = moves := m :: !moves in
    (* A dirty victim is written back (Store) before its pebble goes
       away; a clean one is just deleted. *)
    let handle_eviction = function
      | None -> ()
      | Some { Cache.key; dirty } ->
          if dirty then begin
            emit (Dmc_core.Rbw_game.Store key);
            incr io;
            Bitset.add blue key
          end;
          emit (Dmc_core.Rbw_game.Delete key)
    in
    let read v =
      if not (Cache.touch cache v) then begin
        (* miss: the value must be recoverable from slow memory *)
        if not (Bitset.mem blue v) then
          failwith "Sim_game.of_execution: operand lost (s too small)";
        handle_eviction (Cache.insert cache v);
        emit (Dmc_core.Rbw_game.Load v);
        incr io;
        if Cdag.is_input g v then Bitset.add touched_input v
      end
    in
    Array.iter
      (fun v ->
        Cdag.iter_pred g v (fun u -> read u);
        (* all operands are now the most recently used entries, so the
           LRU victim of the result's insertion cannot be one of them
           unless the capacity is below in-degree + 1 *)
        let victim = Cache.insert cache ~dirty:true v in
        (match victim with
        | Some { Cache.key; _ } when Cdag.has_edge g key v ->
            failwith "Sim_game.of_execution: operand evicted before the fire (s too small)"
        | _ -> ());
        handle_eviction victim;
        emit (Dmc_core.Rbw_game.Compute v))
      order;
    (* flush: write every dirty resident back; outputs must reach slow
       memory *)
    let residents = ref [] in
    Cache.iter (fun k ~dirty -> residents := (k, dirty) :: !residents) cache;
    List.iter
      (fun (k, dirty) ->
        if dirty then begin
          emit (Dmc_core.Rbw_game.Store k);
          incr io;
          Bitset.add blue k
        end;
        emit (Dmc_core.Rbw_game.Delete k);
        ignore (Cache.remove cache k))
      !residents;
    (* whiten inputs nobody read *)
    List.iter
      (fun v ->
        if not (Bitset.mem touched_input v) then begin
          emit (Dmc_core.Rbw_game.Load v);
          incr io;
          emit (Dmc_core.Rbw_game.Delete v)
        end)
      (Cdag.inputs g);
    { moves = List.rev !moves; io = !io }
end

let test_sim_game_replays () =
  List.iter
    (fun (g, s) ->
      let order = Dmc_core.Strategy.default_order g in
      let r = Sim_game.of_execution g ~order ~s in
      match Dmc_core.Rbw_game.run g ~s r.Sim_game.moves with
      | Ok stats -> check "engine io agrees" r.Sim_game.io stats.Dmc_core.Rbw_game.io
      | Error e -> Alcotest.fail e.Dmc_core.Rbw_game.reason)
    [
      (Dmc_gen.Shapes.reduction_tree 16, 4);
      (Dmc_gen.Fft.butterfly 4, 6);
      (Dmc_gen.Linalg.matmul 4, 8);
      ((Dmc_gen.Stencil.jacobi_1d ~n:12 ~steps:4).graph, 6);
    ]

let test_sim_game_matches_exec_traffic () =
  let g = Dmc_gen.Fft.butterfly 4 in
  let s = 6 in
  let order = Dmc_core.Strategy.default_order g in
  let game = Sim_game.of_execution g ~order ~s in
  let exec = Exec.run g ~order (Exec.sequential ~capacities:[| s; 10_000 |]) in
  (* identical LRU decisions: game I/O = boundary-1 traffic (this graph
     has no unused inputs) *)
  check "word-for-word" exec.Exec.vertical.(0).(0) game.Sim_game.io

let test_sim_game_s_too_small () =
  let g = Dmc_gen.Shapes.two_level_fanin ~fanin:4 ~mids:1 in
  Alcotest.check_raises "capacity below working set"
    (Failure "Sim_game.of_execution: operand evicted before the fire (s too small)")
    (fun () ->
      ignore
        (Sim_game.of_execution g
           ~order:(Dmc_core.Strategy.default_order g)
           ~s:4))

let prop_sim_game_valid =
  QCheck.Test.make ~name:"synthesized games replay cleanly" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:5 ~width:4 ~edge_prob:0.4 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 1 + Rng.int rng 4 in
      let order = Dmc_core.Strategy.default_order g in
      let r = Sim_game.of_execution g ~order ~s in
      match Dmc_core.Rbw_game.run g ~s r.Sim_game.moves with
      | Ok stats -> stats.Dmc_core.Rbw_game.io = r.Sim_game.io
      | Error _ -> false)

(* the simulator is a valid pebble-game player: its L1 traffic
   dominates the certified lower bound at the same capacity *)
let prop_sim_dominates_lb =
  QCheck.Test.make ~name:"LRU traffic dominates certified bounds" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:5 ~width:4 ~edge_prob:0.4 in
      let max_indeg =
        Cdag.fold_vertices g (fun acc v -> max acc (Cdag.in_degree g v)) 0
      in
      let s = max_indeg + 2 in
      let order = Dmc_core.Strategy.default_order g in
      let r = Exec.run g ~order (Exec.sequential ~capacities:[| s; 10_000 |]) in
      let report = Dmc_core.Bounds.analyze g ~s in
      r.Exec.vertical.(0).(0) >= report.Dmc_core.Bounds.best_lb)

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_sim"
    [
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "dirty bits" `Quick test_cache_dirty_bits;
          Alcotest.test_case "refresh no evict" `Quick test_cache_refresh_no_evict;
          Alcotest.test_case "iter order" `Quick test_cache_iter_order;
        ] );
      ( "hier_sim",
        [
          Alcotest.test_case "cold misses" `Quick test_hier_cold_misses;
          Alcotest.test_case "L2 hits" `Quick test_hier_l2_hit;
          Alcotest.test_case "writeback" `Quick test_hier_writeback;
          Alcotest.test_case "errors" `Quick test_hier_errors;
          Alcotest.test_case "capacity wall" `Quick test_hier_capacity_wall;
          Alcotest.test_case "exclusive victim cache" `Quick test_hier_exclusive_victim_cache;
          Alcotest.test_case "exclusive aggregates capacity" `Quick
            test_hier_exclusive_aggregates_capacity;
        ] );
      ( "partitioner",
        [
          Alcotest.test_case "block owner" `Quick test_block_owner;
          Alcotest.test_case "1d ghosts" `Quick test_ghost_words_1d;
          Alcotest.test_case "2d ghosts" `Quick test_ghost_words_2d;
          Alcotest.test_case "single block" `Quick test_ghost_words_single_block;
        ] );
      ( "exec",
        [
          Alcotest.test_case "sequential tree" `Quick test_exec_sequential_tree;
          Alcotest.test_case "large cache" `Quick test_exec_large_cache_cold_only;
          Alcotest.test_case "multinode ghosts" `Quick test_exec_multinode_ghosts;
          Alcotest.test_case "rejects bad order" `Quick test_exec_rejects_bad_order;
        ] );
      ( "sim_game",
        [
          Alcotest.test_case "replays cleanly" `Quick test_sim_game_replays;
          Alcotest.test_case "matches exec traffic" `Quick test_sim_game_matches_exec_traffic;
          Alcotest.test_case "s too small" `Quick test_sim_game_s_too_small;
        ] );
      qsuite "exec-props" [ prop_sim_dominates_lb; prop_sim_game_valid ];
    ]
