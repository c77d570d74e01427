(* Tests for machine models: hierarchies, Table-1 data, balance
   classification. *)

module Hierarchy = Dmc_machine.Hierarchy
module Machines = Dmc_machine.Machines
module Balance = Dmc_machine.Balance

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)

let cluster () = Hierarchy.cluster ~nodes:4 ~cores:8 ~s1:32 ~l2:1024 ~mem:65536

let test_hierarchy_shape () =
  let h = cluster () in
  check "levels" 3 (Hierarchy.n_levels h);
  check "processors" 32 (Hierarchy.processors h);
  check "level-1 count" 32 (Hierarchy.count h ~level:1);
  check "level-2 count" 4 (Hierarchy.count h ~level:2);
  check "level-3 count" 4 (Hierarchy.count h ~level:3);
  check "S1" 32 (Hierarchy.capacity h ~level:1);
  check "S2" 1024 (Hierarchy.capacity h ~level:2)

let test_hierarchy_tree () =
  let h = cluster () in
  check "parent of proc 9" 1 (Hierarchy.parent_unit h ~level:1 9);
  Alcotest.(check (list int)) "children of cache 1" [ 8; 9; 10; 11; 12; 13; 14; 15 ]
    (Hierarchy.children_units h ~level:2 1);
  check "unit of processor at L2" 2 (Hierarchy.unit_of_processor h ~level:2 17);
  check "unit of processor at L1" 17 (Hierarchy.unit_of_processor h ~level:1 17)

let test_hierarchy_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Hierarchy.create: no levels")
    (fun () -> ignore (Hierarchy.create []));
  Alcotest.check_raises "increasing counts"
    (Invalid_argument "Hierarchy.create: counts must weakly decrease") (fun () ->
      ignore (Hierarchy.create [ { Hierarchy.count = 2; capacity = 4 };
                                 { Hierarchy.count = 4; capacity = 4 } ]));
  Alcotest.check_raises "indivisible"
    (Invalid_argument "Hierarchy.create: count not divisible by parent count")
    (fun () ->
      ignore (Hierarchy.create [ { Hierarchy.count = 9; capacity = 4 };
                                 { Hierarchy.count = 2; capacity = 4 } ]));
  let h = cluster () in
  Alcotest.check_raises "level range" (Invalid_argument "Hierarchy: level out of range")
    (fun () -> ignore (Hierarchy.count h ~level:4));
  Alcotest.check_raises "fan-out outermost"
    (Invalid_argument "Hierarchy.fan_out: outermost level") (fun () ->
      ignore (Hierarchy.parent_unit h ~level:3 0))

let test_pp_tree () =
  let h = cluster () in
  let out = Format.asprintf "%a" Hierarchy.pp_tree h in
  let lines = String.split_on_char '\n' out |> List.filter (( <> ) "") in
  check "one line per level" 3 (List.length lines);
  check_bool "mentions processors" true
    (List.exists
       (fun l ->
         let n = String.length l in
         n >= 10 && String.sub l (n - 10) 10 = "processors")
       lines)

let test_two_level_and_smp () =
  let h =
    Hierarchy.create
      [ { Hierarchy.count = 1; capacity = 16 }; { Hierarchy.count = 1; capacity = max_int / 2 } ]
  in
  check "two levels" 2 (Hierarchy.n_levels h);
  check "single processor" 1 (Hierarchy.processors h);
  check "S1 = s" 16 (Hierarchy.capacity h ~level:1);
  let smp =
    Hierarchy.create
      [ { Hierarchy.count = 4; capacity = 8 }; { Hierarchy.count = 1; capacity = 256 } ]
  in
  check "smp processors" 4 (Hierarchy.processors smp);
  check "smp shared" 256 (Hierarchy.capacity smp ~level:2)

(* ------------------------------------------------------------------ *)
(* Machines                                                            *)

let test_table1_values () =
  (* The exact values the paper's Table 1 reports. *)
  check "bgq nodes" 2048 Machines.bgq.Machines.nodes;
  check_float "bgq vertical" 0.052 Machines.bgq.Machines.vertical_balance;
  check_float "bgq horizontal" 0.049 Machines.bgq.Machines.horizontal_balance;
  let xt5 = List.nth Machines.table1 1 in
  check "xt5 nodes" 9408 xt5.Machines.nodes;
  check_float "xt5 vertical" 0.0256 xt5.Machines.vertical_balance;
  check_float "xt5 horizontal" 0.058 xt5.Machines.horizontal_balance;
  check "table has both" 2 (List.length Machines.table1)

let test_machine_derived () =
  (* 32 MB cache / 8-byte words = 4 MWords — the S2 in the paper's
     Jacobi analysis. *)
  check "bgq cache words" (4 * 1024 * 1024) (Machines.cache_words Machines.bgq);
  let h = Machines.hierarchy Machines.bgq ~s1:32 in
  check "hierarchy processors" (2048 * 16) (Dmc_machine.Hierarchy.processors h);
  check "hierarchy nodes" 2048 (Dmc_machine.Hierarchy.count h ~level:3)

let test_find () =
  (match Machines.find "ibm bg/q" with
  | Some m -> Alcotest.(check string) "case-insensitive" "IBM BG/Q" m.Machines.name
  | None -> Alcotest.fail "bgq not found");
  check_bool "unknown machine" true (Machines.find "cray ymp" = None)

(* ------------------------------------------------------------------ *)
(* Balance                                                             *)

let test_classify () =
  check_bool "bandwidth bound" true
    (Balance.classify ~lb_per_flop:0.3 ~ub_per_flop:0.5 ~balance:0.05
    = Balance.Bandwidth_bound);
  check_bool "not bound" true
    (Balance.classify ~lb_per_flop:0.001 ~ub_per_flop:0.01 ~balance:0.05
    = Balance.Not_bandwidth_bound);
  check_bool "indeterminate" true
    (Balance.classify ~lb_per_flop:0.01 ~ub_per_flop:0.1 ~balance:0.05
    = Balance.Indeterminate);
  (* boundary cases: equality does not trigger either verdict *)
  check_bool "lb equal to balance" true
    (Balance.classify_lower ~lb_per_flop:0.05 ~balance:0.05 = Balance.Indeterminate);
  check_bool "ub equal to balance" true
    (Balance.classify_upper ~ub_per_flop:0.05 ~balance:0.05 = Balance.Indeterminate);
  Alcotest.check_raises "inconsistent bounds"
    (Invalid_argument "Balance.classify: lower bound exceeds upper bound") (fun () ->
      ignore (Balance.classify ~lb_per_flop:0.5 ~ub_per_flop:0.1 ~balance:0.3))

let test_lb_per_flop () =
  (* CG at d=3, n=1000: LB per node 6 n^3 T / Nnodes over 20 n^3 T
     FLOPs = 0.3 *)
  let n3 = 1.0e9 and t = 10.0 in
  let nodes = 2048 in
  let lb_per_unit = 6.0 *. n3 *. t /. float_of_int nodes in
  check_float "cg ratio" 0.3
    (Balance.lb_per_flop ~lb_per_unit ~units:nodes ~work:(20.0 *. n3 *. t));
  Alcotest.check_raises "zero work"
    (Invalid_argument "Balance.lb_per_flop: non-positive work") (fun () ->
      ignore (Balance.lb_per_flop ~lb_per_unit:1.0 ~units:1 ~work:0.0))

let test_verdict_strings () =
  Alcotest.(check string) "bb" "bandwidth-bound"
    (Balance.verdict_to_string Balance.Bandwidth_bound);
  Alcotest.(check string) "nbb" "not bandwidth-bound"
    (Balance.verdict_to_string Balance.Not_bandwidth_bound);
  Alcotest.(check string) "ind" "indeterminate"
    (Balance.verdict_to_string Balance.Indeterminate)

let () =
  Alcotest.run "dmc_machine"
    [
      ( "hierarchy",
        [
          Alcotest.test_case "shape" `Quick test_hierarchy_shape;
          Alcotest.test_case "tree structure" `Quick test_hierarchy_tree;
          Alcotest.test_case "errors" `Quick test_hierarchy_errors;
          Alcotest.test_case "two-level and smp" `Quick test_two_level_and_smp;
          Alcotest.test_case "pp_tree" `Quick test_pp_tree;
        ] );
      ( "machines",
        [
          Alcotest.test_case "table 1 values" `Quick test_table1_values;
          Alcotest.test_case "derived quantities" `Quick test_machine_derived;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ( "balance",
        [
          Alcotest.test_case "classification" `Quick test_classify;
          Alcotest.test_case "lb per flop" `Quick test_lb_per_flop;
          Alcotest.test_case "verdict strings" `Quick test_verdict_strings;
        ] );
    ]
