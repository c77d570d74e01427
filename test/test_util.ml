(* Unit and property tests for the dmc_util substrate. *)

module Bitset = Dmc_util.Bitset
module Intvec = Dmc_util.Intvec
module Heap = Dmc_util.Heap
module Table = Dmc_util.Table
module Stats = Dmc_util.Stats
module Rng = Dmc_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check_bool "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check "cardinal" 4 (Bitset.cardinal s);
  check_bool "mem 63" true (Bitset.mem s 63);
  check_bool "mem 64" true (Bitset.mem s 64);
  check_bool "not mem 1" false (Bitset.mem s 1);
  Bitset.add s 63;
  check "idempotent add" 4 (Bitset.cardinal s);
  Bitset.remove s 63;
  check "after remove" 3 (Bitset.cardinal s);
  Bitset.remove s 63;
  check "idempotent remove" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements" [ 0; 64; 99 ] (Bitset.elements s);
  Bitset.clear s;
  check "cleared" 0 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "add out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 8);
  Alcotest.check_raises "mem negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "negative capacity" (Invalid_argument "Bitset.create")
    (fun () -> ignore (Bitset.create (-1)))

let test_bitset_setops () =
  let a = Bitset.of_list 10 [ 1; 2; 3; 4 ] in
  let b = Bitset.of_list 10 [ 3; 4; 5; 6 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 5; 6 ] (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 3; 4 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitset.elements (Bitset.diff a b));
  check_bool "subset no" false (Bitset.subset a b);
  check_bool "subset yes" true (Bitset.subset (Bitset.of_list 10 [ 3; 4 ]) b);
  check_bool "equal self" true (Bitset.equal a (Bitset.copy a));
  check_bool "not equal" false (Bitset.equal a b)

let test_bitset_choose_fold () =
  let s = Bitset.of_list 20 [ 7; 11; 13 ] in
  Alcotest.(check (option int)) "choose smallest" (Some 7) (Bitset.choose s);
  check "fold sum" 31 (Bitset.fold (fun i acc -> i + acc) s 0);
  Alcotest.(check (option int)) "choose empty" None (Bitset.choose (Bitset.create 5))

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset matches a list-set model" ~count:200
    QCheck.(list (pair bool (int_bound 63)))
    (fun ops ->
      let s = Bitset.create 64 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add s i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove s i;
            Hashtbl.remove model i
          end)
        ops;
      Bitset.cardinal s = Hashtbl.length model
      && List.for_all (fun i -> Hashtbl.mem model i) (Bitset.elements s))

let prop_bitset_demorgan =
  QCheck.Test.make ~name:"union/inter cardinalities are consistent" ~count:200
    QCheck.(pair (list (int_bound 31)) (list (int_bound 31)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 32 xs and b = Bitset.of_list 32 ys in
      Bitset.cardinal (Bitset.union a b) + Bitset.cardinal (Bitset.inter a b)
      = Bitset.cardinal a + Bitset.cardinal b)

(* ------------------------------------------------------------------ *)
(* Intvec                                                              *)

let test_intvec_basic () =
  let v = Intvec.create ~initial_capacity:2 () in
  for i = 0 to 99 do
    Intvec.push v (i * i)
  done;
  check "length" 100 (Intvec.length v);
  check "get 10" 100 (Intvec.get v 10);
  Intvec.set v 10 7;
  check "set/get" 7 (Intvec.get v 10);
  check "pop" 9801 (Intvec.pop v);
  check "length after pop" 99 (Intvec.length v);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Intvec: index out of bounds")
    (fun () -> ignore (Intvec.get v 99));
  Intvec.clear v;
  check "cleared" 0 (Intvec.length v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Intvec.pop: empty")
    (fun () -> ignore (Intvec.pop v))

let test_intvec_sort_roundtrip () =
  let v = Intvec.create () in
  List.iter (Intvec.push v) [ 5; 1; 4; 2; 3 ];
  Intvec.sort v;
  Alcotest.(check (array int)) "sorted" [| 1; 2; 3; 4; 5 |] (Intvec.to_array v);
  check "fold" 15 (Intvec.fold ( + ) 0 v)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~prio:p ~value:(p * 10)) [ 5; 1; 4; 1; 3 ];
  check "length" 5 (Heap.length h);
  let drained = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (p, _) ->
        drained := p :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] (List.rev !drained);
  check_bool "empty after" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h ~prio:x ~value:x) xs;
      let rec drain acc =
        match Heap.pop_min h with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_render () =
  let t = Table.create ~headers:[ "a"; "bb" ] in
  Table.set_align t [ Table.Left; Table.Right ];
  Table.add_row t [ "x"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  check_bool "has header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  check "line count" 5 (List.length lines);
  let widths = List.map String.length lines in
  check_bool "aligned columns" true
    (List.for_all (( = ) (List.hd widths)) widths);
  Alcotest.check_raises "bad width" (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_formats () =
  Alcotest.(check string) "fmt_int" "1_234_567" (Table.fmt_int 1234567);
  Alcotest.(check string) "fmt_int negative" "-1_000" (Table.fmt_int (-1000));
  Alcotest.(check string) "fmt_int small" "999" (Table.fmt_int 999);
  Alcotest.(check string) "fmt_float" "3.14" (Table.fmt_float ~digits:2 3.14159)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_known () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  let s = Stats.summarize xs in
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "median" 4.5 s.Stats.median;
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "p0 is min" 2.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 9.0 (Stats.percentile xs 100.0)

let test_stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (Stats.mean [||]))

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

module Json = Dmc_util.Json

let test_json_rendering () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Float 2.5 ]);
        ("s", Json.String "he said \"hi\"\n");
      ]
  in
  let compact = Json.to_string ~indent:false v in
  Alcotest.(check string) "compact"
    "{\"a\": 1,\"b\": [true,null,2.5],\"s\": \"he said \\\"hi\\\"\\n\"}"
    compact;
  let pretty = Json.to_string v in
  check_bool "pretty has newlines" true (String.contains pretty '\n');
  Alcotest.(check string) "empty obj" "{}" (Json.to_string (Json.Obj []));
  Alcotest.(check string) "empty list" "[]" (Json.to_string (Json.List []));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "opt none" "null" (Json.to_string (Json.opt (fun i -> Json.Int i) None));
  Alcotest.(check string) "opt some" "7" (Json.to_string (Json.opt (fun i -> Json.Int i) (Some 7)))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  let xs = List.init 20 (fun _ -> Rng.next a) in
  let ys = List.init 20 (fun _ -> Rng.next b) in
  Alcotest.(check (list int)) "same seed same stream" xs ys;
  let c = Rng.create 124 in
  let zs = List.init 20 (fun _ -> Rng.next c) in
  check_bool "different seed different stream" true (xs <> zs)

let test_rng_ranges () =
  let g = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int g 10 in
    if x < 0 || x >= 10 then Alcotest.fail "int out of range";
    let f = Rng.float g 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of range"
  done;
  Alcotest.check_raises "int zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int g 0))

let test_rng_shuffle_is_permutation () =
  let g = Rng.create 99 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let xs = List.init 10 (fun _ -> Rng.next parent) in
  let ys = List.init 10 (fun _ -> Rng.next child) in
  check_bool "streams differ" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Ipc partial delivery                                                *)

module Ipc = Dmc_util.Ipc

let with_pipe f =
  let r, w = Unix.pipe ~cloexec:false () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let write_exactly fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

(* Exhaustive over every byte boundary: a peer that dies after writing
   exactly [cut] bytes of a frame must yield [Closed] (nothing at all)
   or [Truncated] carrying the exact expected/got counts for whichever
   part — header or payload — the cut interrupted. *)
let test_ipc_truncated_every_boundary () =
  let value = Json.Obj [ ("row", Json.Int 7); ("payload", Json.String "xyz") ] in
  let frame = Ipc.encode_frame value in
  let total = String.length frame in
  let payload_len = total - Ipc.header_bytes in
  for cut = 0 to total do
    with_pipe (fun r w ->
        write_exactly w (String.sub frame 0 cut);
        Unix.close w;
        match (Ipc.read_frame r, cut) with
        | Ok v, c when c = total ->
            check_bool "full frame decodes" true (v = value)
        | Error Ipc.Closed, 0 -> ()
        | Error (Ipc.Truncated { expected; got }), c
          when c < Ipc.header_bytes ->
            check (Printf.sprintf "header expected at cut %d" c)
              Ipc.header_bytes expected;
            check (Printf.sprintf "header got at cut %d" c) c got
        | Error (Ipc.Truncated { expected; got }), c ->
            check (Printf.sprintf "payload expected at cut %d" c)
              payload_len expected;
            check (Printf.sprintf "payload got at cut %d" c)
              (c - Ipc.header_bytes) got
        | Ok _, c -> Alcotest.failf "cut %d decoded despite missing bytes" c
        | Error e, c ->
            Alcotest.failf "cut %d: unexpected %s" c
              (Ipc.read_error_to_string e))
  done

(* Same boundaries, but the peer stays alive and merely stalls: with a
   deadline every incomplete prefix must surface as [Timed_out], never
   [Truncated] (the pipe is still open) and never a hang. *)
let test_ipc_timed_out_every_boundary () =
  let value = Json.List [ Json.Int 1; Json.Bool false; Json.String "s" ] in
  let frame = Ipc.encode_frame value in
  let total = String.length frame in
  let payload_len = total - Ipc.header_bytes in
  for cut = 0 to total do
    with_pipe (fun r w ->
        write_exactly w (String.sub frame 0 cut);
        (* w stays open: the peer is dribbling, not dead *)
        let deadline = Unix.gettimeofday () +. 0.01 in
        match (Ipc.read_frame ~deadline r, cut) with
        | Ok v, c when c = total ->
            check_bool "full frame decodes" true (v = value)
        | Error (Ipc.Timed_out { expected; got }), c
          when c < Ipc.header_bytes ->
            check (Printf.sprintf "header expected at cut %d" c)
              Ipc.header_bytes expected;
            check (Printf.sprintf "header got at cut %d" c) c got
        | Error (Ipc.Timed_out { expected; got }), c ->
            check (Printf.sprintf "payload expected at cut %d" c)
              payload_len expected;
            check (Printf.sprintf "payload got at cut %d" c)
              (c - Ipc.header_bytes) got
        | Ok _, c -> Alcotest.failf "cut %d decoded despite missing bytes" c
        | Error e, c ->
            Alcotest.failf "cut %d: unexpected %s" c
              (Ipc.read_error_to_string e))
  done

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "set operations" `Quick test_bitset_setops;
          Alcotest.test_case "choose and fold" `Quick test_bitset_choose_fold;
        ] );
      qsuite "bitset-props" [ prop_bitset_model; prop_bitset_demorgan ];
      ( "intvec",
        [
          Alcotest.test_case "push/pop/get/set" `Quick test_intvec_basic;
          Alcotest.test_case "sort and fold" `Quick test_intvec_sort_roundtrip;
        ] );
      ( "heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering ] );
      qsuite "heap-props" [ prop_heap_sorts ];
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "errors" `Quick test_stats_errors;
        ] );
      ( "json", [ Alcotest.test_case "rendering" `Quick test_json_rendering ] );
      ( "ipc",
        [
          Alcotest.test_case "truncated at every byte boundary" `Quick
            test_ipc_truncated_every_boundary;
          Alcotest.test_case "timed out at every byte boundary" `Quick
            test_ipc_timed_out_every_boundary;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_is_permutation;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        ] );
    ]
