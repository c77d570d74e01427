(* Implicit-vs-materialized equivalence: every ported generator must
   describe byte-for-byte the same CDAG as its materialized namesake —
   same vertex count, edges, degrees, tags, labels and deterministic
   topological order — at several sizes.  This is the license for
   swapping implicit graphs in wherever a frozen CSR used to be. *)

module Cdag = Dmc_cdag.Cdag
module Implicit = Dmc_cdag.Implicit
module Topo = Dmc_cdag.Topo
module Subgraph = Dmc_cdag.Subgraph
module Shapes = Dmc_gen.Shapes
module Fft = Dmc_gen.Fft
module Linalg = Dmc_gen.Linalg
module Stencil = Dmc_gen.Stencil
module Implicit_gen = Dmc_gen.Implicit_gen
module Workload = Dmc_gen.Workload

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sorted_collect iter v =
  let out = ref [] in
  iter v (fun w -> out := w :: !out);
  List.rev !out

(* The full equivalence predicate: same n, same succ/pred rows (order
   included), same tagging, same labels, same deterministic topo
   order. *)
let assert_equiv name (imp : Implicit.t) (g : Cdag.t) =
  check (name ^ ": n_vertices") (Cdag.n_vertices g) imp.Implicit.n_vertices;
  check (name ^ ": n_edges") (Cdag.n_edges g) (Implicit.n_edges imp);
  for v = 0 to Cdag.n_vertices g - 1 do
    let fail what = Alcotest.failf "%s: vertex %d: %s differ" name v what in
    if sorted_collect imp.Implicit.iter_succ v <> sorted_collect (Cdag.iter_succ g) v then
      fail "successors";
    if sorted_collect imp.Implicit.iter_pred v <> Cdag.pred_list g v then
      fail "predecessors";
    if imp.Implicit.is_input v <> Cdag.is_input g v then fail "input tags";
    if imp.Implicit.is_output v <> Cdag.is_output g v then fail "output tags";
    if imp.Implicit.label v <> Cdag.label g v then fail "labels"
  done;
  (* materializing the implicit graph and wrapping the materialized one
     both round-trip *)
  let m = Implicit.materialize imp in
  check (name ^ ": materialized edges") (Cdag.n_edges g) (Cdag.n_edges m);
  if Topo.order m <> Topo.order g then
    Alcotest.failf "%s: topological orders differ" name;
  check_bool (name ^ ": id-monotone") true (Implicit.check_monotone imp)

let test_chain () =
  List.iter
    (fun n -> assert_equiv (Printf.sprintf "chain:%d" n)
        (Implicit_gen.chain n) (Shapes.chain n))
    [ 1; 7; 64 ]

let test_tree () =
  List.iter
    (fun n -> assert_equiv (Printf.sprintf "tree:%d" n)
        (Implicit_gen.reduction_tree n) (Shapes.reduction_tree n))
    [ 1; 2; 5; 13; 64; 100 ]

let test_diamond () =
  List.iter
    (fun (r, c) -> assert_equiv (Printf.sprintf "diamond:%d,%d" r c)
        (Implicit_gen.diamond ~rows:r ~cols:c)
        (Shapes.diamond ~rows:r ~cols:c))
    [ (1, 1); (3, 5); (8, 8); (1, 9) ]

let test_fft () =
  List.iter
    (fun k -> assert_equiv (Printf.sprintf "fft:%d" k)
        (Implicit_gen.butterfly k) (Fft.butterfly k))
    [ 0; 1; 3; 6 ]

let test_matmul () =
  List.iter
    (fun n -> assert_equiv (Printf.sprintf "matmul:%d" n)
        (Implicit_gen.matmul n) (Linalg.matmul n))
    [ 1; 2; 4; 7 ]

let test_jacobi () =
  List.iter
    (fun (n, t) -> assert_equiv (Printf.sprintf "jacobi1d:%d,%d" n t)
        (Implicit_gen.jacobi_1d ~n ~steps:t)
        (Stencil.jacobi_1d ~n ~steps:t).Stencil.graph)
    [ (1, 1); (9, 3); (32, 8) ];
  List.iter
    (fun (n, t) -> assert_equiv (Printf.sprintf "jacobi2d:%d,%d" n t)
        (Implicit_gen.jacobi_2d ~n ~steps:t)
        (Stencil.jacobi_2d ~n ~steps:t ()).Stencil.graph)
    [ (3, 2); (6, 3) ];
  List.iter
    (fun (n, t) -> assert_equiv (Printf.sprintf "jacobi3d:%d,%d" n t)
        (Implicit_gen.jacobi_3d ~n ~steps:t)
        (Stencil.jacobi_3d ~n ~steps:t).Stencil.graph)
    [ (2, 2); (4, 2) ]

(* of_cdag on an irregular graph round-trips through materialize *)
let test_of_cdag_roundtrip () =
  let g = Linalg.cholesky 5 in
  let imp = Implicit.of_cdag g in
  assert_equiv "of_cdag(cholesky:5)" imp g

(* windows: Theorem-2 tagging and edge discovery without global scans *)
let test_window () =
  let imp = Implicit_gen.jacobi_1d ~n:16 ~steps:4 in
  let g = (Stencil.jacobi_1d ~n:16 ~steps:4).Stencil.graph in
  let part = Implicit.window imp ~lo:16 ~hi:48 in
  let ref_part =
    let set = Dmc_util.Bitset.create (Cdag.n_vertices g) in
    for i = 16 to 47 do Dmc_util.Bitset.add set i done;
    Subgraph.induced g set
  in
  check "window size" (Cdag.n_vertices ref_part.Subgraph.graph)
    (Cdag.n_vertices part.Subgraph.graph);
  check "window edges" (Cdag.n_edges ref_part.Subgraph.graph)
    (Cdag.n_edges part.Subgraph.graph);
  (* same parent ids in the same order *)
  check_bool "window to_parent" true
    (part.Subgraph.to_parent = ref_part.Subgraph.to_parent);
  (* full-range window reproduces the whole graph *)
  let whole = Implicit.window imp ~lo:0 ~hi:imp.Implicit.n_vertices in
  check "whole-window edges" (Cdag.n_edges g)
    (Cdag.n_edges whole.Subgraph.graph)

(* huge instances: construction and local adjacency stay O(1)-ish *)
let test_huge_local_access () =
  let imp = Implicit_gen.jacobi_1d ~n:1_000_000_000 ~steps:8 in
  check "huge n" 9_000_000_000 imp.Implicit.n_vertices;
  let succs = sorted_collect imp.Implicit.iter_succ 500_000_000 in
  check "huge succ count" 3 (List.length succs);
  let fft = Implicit_gen.butterfly 30 in
  check "huge fft n" (31 * (1 lsl 30)) fft.Implicit.n_vertices;
  let preds = sorted_collect fft.Implicit.iter_pred (5 * (1 lsl 30)) in
  check "huge fft pred count" 2 (List.length preds)

let test_registry () =
  (* spec parsing with trailing defaults *)
  (match Workload.parse_implicit "jacobi1d:100" with
  | Ok imp -> check "default T=8" (9 * 100) imp.Implicit.n_vertices
  | Error e -> Alcotest.fail e);
  (match Workload.parse_implicit "jacobi1d:100,3" with
  | Ok imp -> check "explicit T" (4 * 100) imp.Implicit.n_vertices
  | Error e -> Alcotest.fail e);
  check_bool "arity error" true
    (match Workload.parse_implicit "diamond:4" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "unknown name" true
    (match Workload.parse_implicit "nosuch:4" with
    | Error _ -> true
    | Ok _ -> false);
  (* every implicit entry with a materialized namesake agrees on a
     small instance *)
  let small = [ ("chain", [ 12 ]); ("tree", [ 12 ]); ("diamond", [ 4; 6 ]);
                ("fft", [ 3 ]); ("matmul", [ 3 ]); ("jacobi1d", [ 8; 2 ]);
                ("jacobi2d", [ 4; 2 ]); ("jacobi3d", [ 3; 2 ]) ] in
  List.iter
    (fun (name, args) ->
      match (Workload.build_implicit name args, Workload.build name args) with
      | Ok imp, Ok g -> assert_equiv ("registry " ^ name) imp g
      | _ -> Alcotest.failf "registry build failed for %s" name)
    small

(* ------------------------------------------------------------------ *)
(* Streamed Theorem-2 sweeps                                           *)

module Streaming = Dmc_core.Streaming
module Run = Dmc_runtime.Run

(* The windows give the same rows in the caller and over fork
   workers, and none of them degrades. *)
let test_stream_backends () =
  let imp = Implicit_gen.jacobi_1d ~n:600 ~steps:3 in
  let local = Streaming.wavefront_sum ~window:500 imp ~s:8 in
  let pooled =
    Streaming.wavefront_sum ~window:500
      ~settings:{ Run.default with jobs = 2 }
      imp ~s:8
  in
  check "windows" 5 local.Streaming.n_windows;
  check "nothing degraded" 0 (local.Streaming.degraded + pooled.Streaming.degraded);
  check "same total" local.Streaming.total pooled.Streaming.total;
  check_bool "same rows" true (local.Streaming.windows = pooled.Streaming.windows)

let dmc_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "dmc.exe"

(* The supervision flags reach the pool: an injected crash with no
   retries loses exactly one window, reported as degraded. *)
let test_stream_fault_degrades () =
  if not (Sys.file_exists dmc_exe) then
    Alcotest.fail ("dmc binary missing: " ^ dmc_exe);
  let cmd =
    String.concat " "
      (List.map Filename.quote
         [
           dmc_exe; "bounds"; "--stream"; "-g"; "chain:10000"; "-s"; "4";
           "--window"; "2000"; "--jobs"; "2"; "--fault"; "abort:1";
           "--retries"; "0"; "--json";
         ])
    ^ " 2>/dev/null"
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s failed" cmd);
  match Dmc_util.Json.parse out with
  | Ok json ->
      let field f = Option.bind (Dmc_util.Json.mem json f) Dmc_util.Json.as_int in
      check "windows" 5 (Option.value ~default:(-1) (field "windows"));
      check "degraded" 1 (Option.value ~default:(-1) (field "degraded"))
  | Error e -> Alcotest.failf "bad JSON from %s: %s" cmd e

let () =
  Alcotest.run "implicit"
    [
      ( "equivalence",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "tree" `Quick test_tree;
          Alcotest.test_case "diamond" `Quick test_diamond;
          Alcotest.test_case "fft" `Quick test_fft;
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "jacobi" `Quick test_jacobi;
          Alcotest.test_case "of_cdag roundtrip" `Quick test_of_cdag_roundtrip;
        ] );
      ( "windows",
        [
          Alcotest.test_case "window" `Quick test_window;
          Alcotest.test_case "huge local access" `Quick test_huge_local_access;
        ] );
      ( "registry",
        [ Alcotest.test_case "registry" `Quick test_registry ] );
      ( "streaming",
        [
          Alcotest.test_case "in-process = pooled" `Quick test_stream_backends;
          Alcotest.test_case "--fault degrades one window" `Quick
            test_stream_fault_degrades;
        ] );
    ]
