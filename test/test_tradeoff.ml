(* Tests for the trade-off experiment: curve measurement invariants
   (sandwich, monotonicity, p = 1 agreement), curve JSON round-trips,
   the registry pipeline, and byte-identical Doc-IR output across
   --jobs widths through the real CLI binary. *)

module Doc = Dmc_analysis.Doc
module Experiment = Dmc_analysis.Experiment
module Report = Dmc_analysis.Report
module Tradeoff = Dmc_analysis.Tradeoff
module Json = Dmc_util.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A small workload keeps the exact wavefront rungs cheap. *)
let small_curve = lazy (Tradeoff.measure ~spec:"tree:16" ~s:3 ())

let test_curve_shape () =
  let c = Lazy.force small_curve in
  check_int "one point per p" (List.length Tradeoff.ps)
    (List.length c.Tradeoff.points);
  List.iter2
    (fun p pt -> check_int "p sweep order" p pt.Tradeoff.p)
    Tradeoff.ps c.Tradeoff.points;
  check_bool "seq lb <= seq ub" true Tradeoff.(c.seq_lb <= c.seq_ub)

let test_sandwich () =
  let c = Lazy.force small_curve in
  check_bool "comm lb <= measured and time lb <= makespan" true
    (Tradeoff.sandwich_ok c);
  List.iter
    (fun pt ->
      check_bool
        (Printf.sprintf "positive bounds at p=%d" pt.Tradeoff.p)
        true
        Tradeoff.(pt.comm_lb > 0 && pt.time_lb > 0))
    c.Tradeoff.points

let test_lb_monotone () =
  let c = Lazy.force small_curve in
  check_bool "comm lb non-increasing in p" true (Tradeoff.lb_monotone c);
  (* the predicate itself must reject a non-monotone curve *)
  let rising =
    {
      c with
      Tradeoff.points =
        List.mapi
          (fun i pt -> { pt with Tradeoff.comm_lb = pt.Tradeoff.comm_lb + i })
          c.Tradeoff.points;
    }
  in
  check_bool "predicate rejects a rising lb" false (Tradeoff.lb_monotone rising)

let test_p1_agrees () =
  let c = Lazy.force small_curve in
  check_bool "p=1 collapses to the sequential bounds" true
    (Tradeoff.p1_agrees c);
  let off =
    { c with Tradeoff.seq_lb = c.Tradeoff.seq_lb + 1 }
  in
  check_bool "predicate rejects a disagreeing p=1 point" false
    (Tradeoff.p1_agrees off)

let test_json_roundtrip () =
  let c = Lazy.force small_curve in
  let json = Tradeoff.curve_to_json c in
  match Json.parse (Json.to_string json) with
  | Error msg -> Alcotest.failf "curve JSON does not re-parse: %s" msg
  | Ok json' ->
      let c' = Tradeoff.curve_of_json json' in
      check_str "curve survives the JSON round-trip"
        (Json.to_string json)
        (Json.to_string (Tradeoff.curve_to_json c'))

(* Registry integration: the tradeoff experiment is registered, its
   part names are unique, and the doc built from serialized payloads
   matches the directly-assembled doc (the pipeline the pool and the
   checkpoint use). *)
let test_registry_pipeline () =
  let e =
    match Report.find "tradeoff" with
    | Some e -> e
    | None -> Alcotest.fail "tradeoff experiment not registered"
  in
  let names = List.map (fun (p : Experiment.part) -> p.part) e.parts in
  check_int "part names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  let payloads =
    List.map
      (fun (p : Experiment.part) ->
        let payload = p.run () in
        match Json.parse (Json.to_string payload) with
        | Ok payload -> payload
        | Error msg -> Alcotest.failf "payload does not re-parse: %s" msg)
      e.parts
  in
  let doc = e.doc_of_parts payloads in
  check_str "doc from serialized payloads"
    (Doc.to_text (Experiment.doc e))
    (Doc.to_text doc);
  check_bool "all tradeoff checks pass" true (Doc.ok doc);
  (* the curves plot against p, not S *)
  let xlabels =
    List.filter_map
      (function Doc.Curve c -> Some c.Doc.xlabel | _ -> None)
      doc.Doc.blocks
  in
  check_bool "curves carry the p axis" true
    (xlabels <> [] && List.for_all (fun l -> l = "p") xlabels)

(* ------------------------------------------------------------------ *)
(* Byte-identity across --jobs widths, through the real binary         *)

let dmc_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    "dmc.exe"

let run_capture argv =
  let cmd =
    String.concat " " (List.map Filename.quote argv) ^ " 2>/dev/null"
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Buffer.contents buf
  | Unix.WEXITED n -> Alcotest.failf "%s exited %d" cmd n
  | _ -> Alcotest.failf "%s killed" cmd

let test_jobs_determinism () =
  if not (Sys.file_exists dmc_exe) then
    Alcotest.fail ("dmc binary missing: " ^ dmc_exe);
  let run jobs =
    run_capture
      [ dmc_exe; "experiment"; "tradeoff"; "--json"; "--jobs"; jobs ]
  in
  let serial = run "1" and wide = run "4" in
  check_bool "report is non-trivial" true (String.length serial > 100);
  check_str "--jobs 4 report is byte-identical to --jobs 1" serial wide

let test_sweep_p_jobs_determinism () =
  if not (Sys.file_exists dmc_exe) then
    Alcotest.fail ("dmc binary missing: " ^ dmc_exe);
  let run jobs =
    run_capture
      [
        dmc_exe; "sweep"; "tree:16"; "-s"; "3,4"; "-p"; "1,2,4";
        "--engines"; "mp-comm-lb,mp-comm-ub"; "--jobs"; jobs;
      ]
  in
  let serial = run "1" and wide = run "4" in
  check_bool "sweep report is non-trivial" true (String.length serial > 100);
  check_str "sweep --jobs 4 report is byte-identical to --jobs 1" serial wide

let () =
  Alcotest.run "dmc_tradeoff"
    [
      ( "curve",
        [
          Alcotest.test_case "shape" `Quick test_curve_shape;
          Alcotest.test_case "sandwich" `Quick test_sandwich;
          Alcotest.test_case "lb monotone in p" `Quick test_lb_monotone;
          Alcotest.test_case "p=1 agreement" `Quick test_p1_agrees;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "registry pipeline" `Slow test_registry_pipeline;
          Alcotest.test_case "--jobs byte-identity" `Slow test_jobs_determinism;
          Alcotest.test_case "sweep -p --jobs byte-identity" `Slow
            test_sweep_p_jobs_determinism;
        ] );
    ]
