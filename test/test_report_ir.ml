(* Tests for the report IR: golden byte-comparison of the text
   renderer against the pre-IR output, JSON round-tripping, and the
   Markdown table-cell escaping. *)

module Doc = Dmc_analysis.Doc
module Experiment = Dmc_analysis.Experiment
module Report = Dmc_analysis.Report
module Json = Dmc_util.Json
module Table = Dmc_util.Table

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let experiment name =
  match Report.find name with
  | Some e -> e
  | None -> Alcotest.failf "experiment %s not registered" name

(* The golden fixtures are the verbatim stdout of the print-based
   reports this IR replaced (minus the trailing OVERALL line); the
   text renderer must reproduce them byte for byte.  One cell has
   changed since: validate's outer3 row at S = 5 shows the optimum 15
   (equal to its best lower bound and Belady bound) where the
   exhaustive search used to stop at its state cap. *)
let test_golden name () =
  let doc = Experiment.doc (experiment name) in
  let expected = read_file (Filename.concat "golden" (name ^ ".txt")) in
  Alcotest.(check string) (name ^ " text output") expected (Doc.to_text doc)

let roundtrip doc =
  let json = Doc.to_json doc in
  let text = Json.to_string json in
  match Json.parse text with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok json' -> (
      match Doc.of_json json' with
      | Error msg -> Alcotest.failf "of_json failed: %s" msg
      | Ok doc' -> doc')

let test_json_roundtrip name () =
  let doc = Experiment.doc (experiment name) in
  let doc' = roundtrip doc in
  Alcotest.(check string)
    (name ^ " text survives the JSON round-trip")
    (Doc.to_text doc) (Doc.to_text doc');
  Alcotest.(check bool)
    (name ^ " verdict survives the JSON round-trip")
    (Doc.ok doc) (Doc.ok doc')

(* Every block constructor, including curves with their float bounds
   and checks with attached values, through to_json/of_json. *)
let test_json_roundtrip_synthetic () =
  let table =
    let t = Table.create ~headers:[ "name"; "value" ] in
    Table.set_align t [ Table.Left; Table.Right ];
    Table.add_row t [ "alpha"; "1" ];
    Table.add_rule t;
    Table.add_row t [ "beta"; "2" ];
    t
  in
  let doc =
    {
      Doc.name = "synthetic";
      blocks =
        [
          Doc.Section "a section";
          Doc.Text "free text\nwith lines\n";
          Doc.Facts [ [ Doc.fact "k" "v"; Doc.fact "k2" "v2" ]; [ Doc.fact "x" "y" ] ];
          Doc.Table table;
          Doc.Curve
            {
              Doc.curve = "curve";
              shape = "O(n)";
              xlabel = "S";
              points =
                [ { Doc.x = 8; lb = 1.25; ub = 3 }; { Doc.x = 16; lb = 0.1; ub = 1 } ];
            };
          Doc.check ~lb:1.5 ~measured:2.0 ~ub:4.0 "sandwiched" true;
          Doc.check "failing" false;
        ];
    }
  in
  let doc' = roundtrip doc in
  Alcotest.(check string) "text identical" (Doc.to_text doc) (Doc.to_text doc');
  Alcotest.(check bool) "ok carries the failing check" false (Doc.ok doc');
  match List.rev (Doc.checks doc') with
  | { Doc.label = "failing"; ok = false; _ } :: sandwich :: _ ->
      Alcotest.(check (option (float 0.0))) "lb survives" (Some 1.5) sandwich.Doc.lb;
      Alcotest.(check (option (float 0.0)))
        "measured survives" (Some 2.0) sandwich.Doc.measured;
      Alcotest.(check (option (float 0.0))) "ub survives" (Some 4.0) sandwich.Doc.ub
  | _ -> Alcotest.fail "checks lost in round-trip"

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_markdown_escaping () =
  let table =
    let t = Table.create ~headers:[ "cell" ] in
    Table.add_row t [ "a|b" ];
    Table.add_row t [ "back\\slash" ];
    Table.add_row t [ "two\nlines" ];
    t
  in
  let md =
    Doc.to_markdown { Doc.name = "esc"; blocks = [ Doc.Table table ] }
  in
  Alcotest.(check bool) "pipe escaped" true (contains ~sub:"a\\|b" md);
  Alcotest.(check bool) "backslash escaped" true
    (contains ~sub:"back\\\\slash" md);
  Alcotest.(check bool) "newline becomes <br>" true
    (contains ~sub:"two<br>lines" md);
  Alcotest.(check bool) "raw pipe gone from cells" false
    (contains ~sub:"| a|b |" md)

let test_markdown_shape () =
  let doc = Experiment.doc (experiment "table1") in
  let md = Doc.to_markdown doc in
  Alcotest.(check bool) "titled" true
    (contains ~sub:"# Experiment `table1`" md);
  Alcotest.(check bool) "has a section heading" true
    (contains ~sub:"## Table 1: machine specifications" md);
  Alcotest.(check bool) "has a separator row" true (contains ~sub:"| --- |" md)

(* The registry exposes parts with unique names and a working
   part-payload pipeline: doc-from-payloads equals doc-from-run. *)
let test_parts_pipeline name () =
  let e = experiment name in
  let names = Experiment.part_names e in
  Alcotest.(check int) "part names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  let payloads = List.map (fun (p : Experiment.part) -> p.run ()) e.parts in
  (* Payloads must survive serialization: the pool and the checkpoint
     both ship them as JSON text. *)
  let payloads =
    List.map
      (fun p ->
        match Json.parse (Json.to_string p) with
        | Ok p -> p
        | Error msg -> Alcotest.failf "payload does not re-parse: %s" msg)
      payloads
  in
  let doc = e.doc_of_parts payloads in
  Alcotest.(check string) "doc from serialized payloads"
    (Doc.to_text (Experiment.doc e))
    (Doc.to_text doc)

let () =
  Alcotest.run "report_ir"
    [
      ( "golden",
        [
          Alcotest.test_case "table1" `Quick (test_golden "table1");
          Alcotest.test_case "sec3" `Quick (test_golden "sec3");
          Alcotest.test_case "jacobi" `Slow (test_golden "jacobi");
          Alcotest.test_case "validate" `Slow (test_golden "validate");
        ] );
      ( "json",
        [
          Alcotest.test_case "table1 round-trip" `Quick
            (test_json_roundtrip "table1");
          Alcotest.test_case "sec3 round-trip" `Quick (test_json_roundtrip "sec3");
          Alcotest.test_case "synthetic round-trip" `Quick
            test_json_roundtrip_synthetic;
        ] );
      ( "markdown",
        [
          Alcotest.test_case "cell escaping" `Quick test_markdown_escaping;
          Alcotest.test_case "document shape" `Quick test_markdown_shape;
        ] );
      ( "parts",
        [
          Alcotest.test_case "table1 pipeline" `Quick (test_parts_pipeline "table1");
          Alcotest.test_case "scaling pipeline" `Quick
            (test_parts_pipeline "scaling");
          Alcotest.test_case "summary pipeline" `Quick
            (test_parts_pipeline "summary");
        ] );
    ]
