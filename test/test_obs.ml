(* Tests for the observability layer: counter/enabled semantics, span
   nesting, the Chrome trace export (valid JSON, consistent ts/dur),
   registry reset determinism — two identical instrumented runs must
   produce byte-identical counter profiles — and the snapshot/merge
   round-trip the pool supervisor uses across the fork boundary. *)

module Json = Dmc_util.Json
module Ipc = Dmc_util.Ipc
module Registry = Dmc_obs.Registry
module Counter = Dmc_obs.Counter
module Span = Dmc_obs.Span
module Export = Dmc_obs.Export

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test starts from a clean, enabled registry and leaves it
   disabled, so suites cannot observe each other's state. *)
let with_registry f () =
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled false) f

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let test_counter_disabled () =
  Registry.reset ();
  Registry.set_enabled false;
  let c = Counter.make "test.disabled" in
  Counter.incr c;
  Counter.add c 41;
  check "disabled counter stays zero" 0 (Counter.value c)

let test_counter_enabled =
  with_registry (fun () ->
      let c = Counter.make "test.enabled" in
      Counter.incr c;
      Counter.add c 41;
      check "enabled counter accumulates" 42 (Counter.value c);
      (* find-or-create: same name gives the same cell *)
      let c' = Counter.make "test.enabled" in
      Counter.incr c';
      check "registration is idempotent" 43 (Counter.value c))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_nesting =
  with_registry (fun () ->
      let got =
        Span.with_ "outer" (fun () ->
            Span.with_ "inner" (fun () -> 7) + 10)
      in
      check "span body result" 17 got;
      let events = ref [] in
      Registry.iter_events (fun e -> events := e :: !events);
      match List.rev !events with
      | [ inner; outer ] ->
          (* completion order: inner closes first *)
          check_string "inner first" "inner" inner.Registry.ev_name;
          check_string "outer second" "outer" outer.Registry.ev_name;
          check "inner depth" 1 inner.Registry.ev_depth;
          check "outer depth" 0 outer.Registry.ev_depth;
          check_bool "durations non-negative" true
            (inner.Registry.ev_dur >= 0.0 && outer.Registry.ev_dur >= 0.0);
          check_bool "outer contains inner" true
            (outer.Registry.ev_ts <= inner.Registry.ev_ts
            && outer.Registry.ev_ts +. outer.Registry.ev_dur
               >= inner.Registry.ev_ts +. inner.Registry.ev_dur)
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l))

let test_span_exception =
  with_registry (fun () ->
      (match Span.with_ "raises" (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
      check "span recorded despite exception" 1 (Registry.event_count ());
      (* the stack unwound: a following span opens at depth 0 *)
      Span.with_ "after" (fun () -> ());
      Registry.iter_events (fun e ->
          if e.Registry.ev_name = "after" then
            check "stack unwound on raise" 0 e.Registry.ev_depth))

let test_span_disabled () =
  Registry.reset ();
  Registry.set_enabled false;
  let got = Span.with_ "off" (fun () -> 5) in
  check "disabled span is transparent" 5 got;
  check "no span recorded when disabled" 0 (Registry.event_count ())

(* ------------------------------------------------------------------ *)
(* An instrumented workload: real engines, deterministic node counts.  *)

let run_workload () =
  let g = Dmc_gen.Shapes.diamond ~rows:3 ~cols:3 in
  ignore (Dmc_core.Optimal.rbw_io g ~s:4);
  ignore (Dmc_core.Wavefront.wmax_exact g);
  let jac =
    Dmc_gen.Stencil.jacobi_1d ~n:8 ~steps:3
  in
  ignore (Dmc_core.Strategy.io jac.Dmc_gen.Stencil.graph ~s:6)

let test_reset_determinism () =
  (* Two reset-run cycles must yield byte-identical counter output:
     the acceptance bar behind the --jobs 1 vs --jobs 2 profile diff. *)
  Registry.reset ();
  Registry.set_enabled true;
  run_workload ();
  let first = Export.counters_table () in
  Registry.reset ();
  run_workload ();
  let second = Export.counters_table () in
  Registry.set_enabled false;
  check_string "identical runs, identical counters" first second;
  check_bool "workload actually counted something" true
    (String.length first > 0
    && Registry.fold_counters (fun acc c -> acc + c.Registry.c_value) 0 > 0)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

let test_chrome_trace =
  with_registry (fun () ->
      run_workload ();
      (* Round-trip through the concrete syntax: the file a user hands
         to chrome://tracing must parse back as JSON. *)
      let doc =
        match Json.parse (Json.to_string (Export.chrome_trace ())) with
        | Ok d -> d
        | Error m -> Alcotest.failf "chrome trace is not valid JSON: %s" m
      in
      let events =
        match Json.mem doc "traceEvents" with
        | Some (Json.List es) -> es
        | _ -> Alcotest.fail "traceEvents missing or not a list"
      in
      let slices =
        List.filter
          (fun e ->
            match Json.mem e "ph" with
            | Some (Json.String "X") -> true
            | _ -> false)
          events
      in
      check_bool "has complete slices" true (List.length slices > 0);
      let num j =
        match j with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> Alcotest.fail "ts/dur missing or not numeric"
      in
      List.iter
        (fun e ->
          let ts = num (Json.mem e "ts") and dur = num (Json.mem e "dur") in
          check_bool "ts non-negative" true (ts >= 0.0);
          check_bool "dur non-negative" true (dur >= 0.0);
          (match Json.mem e "name" with
          | Some (Json.String _) -> ()
          | _ -> Alcotest.fail "slice without a name");
          match Json.mem e "pid" with
          | Some (Json.Int 0) -> ()
          | _ -> Alcotest.fail "slice with unexpected pid")
        slices)

let test_chrome_trace_failed_rung =
  with_registry (fun () ->
      (* A rung that exhausts its node budget must still close its span
         and stamp the failure outcome — failed work has to show up in
         the trace, not vanish. *)
      let g = Dmc_gen.Shapes.diamond ~rows:4 ~cols:4 in
      let row = Dmc_core.Bounds.governed_row ~node_budget:50 g ~s:4 "partition-h" in
      ignore row;
      let found = ref false in
      Registry.iter_events (fun e ->
          if List.mem_assoc "outcome" e.Registry.ev_attrs then begin
            found := true;
            check_bool "span closed with a duration" true
              (e.Registry.ev_dur >= 0.0)
          end);
      check_bool "at least one rung span with an outcome" true !found)

(* ------------------------------------------------------------------ *)
(* Source lanes and instant events (the fleet-trace machinery)         *)

let test_source_lanes =
  with_registry (fun () ->
      check "lane 0 is this process" 0 (Registry.source "dmc");
      let a = Registry.source "hostA" in
      let b = Registry.source "hostB" in
      check_bool "fresh lanes are distinct and nonzero" true
        (a <> b && a > 0 && b > 0);
      check "registration is idempotent" a (Registry.source "hostA");
      check_string "lane name round-trips" "hostA"
        (Option.get (Registry.source_name a));
      (* a local span stays on lane 0; a merged worker span lands on
         its host's lane, and the Chrome export gives each lane its
         own pid with process_name metadata *)
      Span.with_ "local.work" (fun () -> ());
      (* merging this registry's own snapshot under [~src:a] plants a
         copy of the span on the host lane while the original stays on
         lane 0 — the fork boundary without the fork *)
      Registry.merge_snapshot ~tid:1 ~src:a (Registry.snapshot_json ());
      let doc =
        match Json.parse (Json.to_string (Export.chrome_trace ())) with
        | Ok d -> d
        | Error m -> Alcotest.failf "chrome trace is not valid JSON: %s" m
      in
      let events =
        match Json.mem doc "traceEvents" with
        | Some (Json.List es) -> es
        | _ -> Alcotest.fail "traceEvents missing"
      in
      let pids_of ph_kind =
        List.filter_map
          (fun e ->
            match (Json.mem e "ph", Json.mem e "pid") with
            | Some (Json.String k), Some (Json.Int pid) when k = ph_kind ->
                Some pid
            | _ -> None)
          events
      in
      let slice_pids = List.sort_uniq compare (pids_of "X") in
      check_bool "slices appear on lane 0 and the host lane" true
        (List.mem 0 slice_pids && List.mem a slice_pids);
      let proc_names =
        List.filter_map
          (fun e ->
            match (Json.mem e "ph", Json.mem e "name") with
            | Some (Json.String "M"), Some (Json.String "process_name") ->
                Option.bind (Json.mem e "args") (fun args ->
                    match (Json.mem args "name", Json.mem e "pid") with
                    | Some (Json.String n), Some (Json.Int pid) ->
                        Some (pid, n)
                    | _ -> None)
            | _ -> None)
          events
      in
      check_string "lane 0 named dmc" "dmc"
        (Option.get (List.assoc_opt 0 proc_names));
      check_string "host lane named after the host" "hostA"
        (Option.get (List.assoc_opt a proc_names)))

let test_instant_events =
  with_registry (fun () ->
      Registry.add_event ~name:"host.quarantine"
        ~attrs:[ ("ph", "i"); ("verdict", "dead") ]
        ~ts_us:10.0 ~dur_us:0.0
        ~src:(Registry.source "hostX") ();
      let doc =
        match Json.parse (Json.to_string (Export.chrome_trace ())) with
        | Ok d -> d
        | Error m -> Alcotest.failf "chrome trace is not valid JSON: %s" m
      in
      let events =
        match Json.mem doc "traceEvents" with
        | Some (Json.List es) -> es
        | _ -> Alcotest.fail "traceEvents missing"
      in
      let inst =
        List.find_opt
          (fun e ->
            match (Json.mem e "ph", Json.mem e "name") with
            | Some (Json.String "i"), Some (Json.String "host.quarantine") ->
                true
            | _ -> false)
          events
      in
      match inst with
      | None -> Alcotest.fail "instant event missing from the trace"
      | Some e ->
          check_bool "instants carry no dur" true (Json.mem e "dur" = None);
          (match Json.mem e "s" with
          | Some (Json.String "p") -> ()
          | _ -> Alcotest.fail "instant scope must be process");
          (match Json.mem e "args" with
          | Some args ->
              check_bool "ph marker stripped from args" true
                (Json.mem args "ph" = None);
              check_bool "real attrs survive" true
                (Json.mem args "verdict" <> None)
          | None -> Alcotest.fail "instant lost its args"))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let test_flight_ring =
  with_registry (fun () ->
      let restore = Registry.default_flight_capacity in
      Fun.protect
        ~finally:(fun () -> Registry.set_flight_capacity restore)
        (fun () ->
          Registry.set_flight_capacity 4;
          for i = 1 to 7 do
            Registry.flight_note ~kind:"test" ~name:(Printf.sprintf "n%d" i)
              ~detail:""
          done;
          check "total pushed" 7 (Registry.flight_count ());
          let names =
            List.map (fun e -> e.Registry.fl_name) (Registry.flight_entries ())
          in
          Alcotest.(check (list string))
            "ring keeps the most recent, oldest first"
            [ "n4"; "n5"; "n6"; "n7" ] names;
          let ts = List.map (fun e -> e.Registry.fl_ts) (Registry.flight_entries ()) in
          check_bool "timestamps non-decreasing" true
            (List.sort compare ts = ts)))

let test_flight_disabled () =
  Registry.reset ();
  Registry.set_enabled false;
  Registry.flight_note ~kind:"test" ~name:"off" ~detail:"";
  check "disabled recorder stays empty" 0 (Registry.flight_count ())

let test_flight_span_autonote =
  with_registry (fun () ->
      Span.with_ "work.unit" (fun () -> ());
      let spans =
        List.filter
          (fun e -> e.Registry.fl_kind = "span")
          (Registry.flight_entries ())
      in
      match spans with
      | [ e ] -> check_string "span close auto-noted" "work.unit" e.Registry.fl_name
      | l -> Alcotest.failf "expected 1 span note, got %d" (List.length l))

let test_flight_dump_and_write =
  with_registry (fun () ->
      Counter.add (Counter.make "test.flight.counter") 3;
      Registry.flight_note ~kind:"verdict" ~name:"job0" ~detail:"crashed";
      let doc =
        Dmc_obs.Flight.dump ~reason:"crashed: SIGKILL"
          ~attrs:[ ("job", "0") ] ()
      in
      (match Json.mem doc "kind" with
      | Some (Json.String "dmc-postmortem") -> ()
      | _ -> Alcotest.fail "dump kind tag");
      (match Json.mem doc "reason" with
      | Some (Json.String "crashed: SIGKILL") -> ()
      | _ -> Alcotest.fail "dump reason");
      (match Json.mem doc "flight" with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "dump flight ring empty");
      (match Json.mem doc "counters" with
      | Some (Json.Obj cs) ->
          check_bool "non-zero counters dumped" true
            (List.mem_assoc "test.flight.counter" cs)
      | _ -> Alcotest.fail "dump counters");
      let dir = Filename.temp_file "dmc-flight" "" in
      Sys.remove dir;
      match
        Dmc_obs.Flight.write ~dir ~slug:"job0-attempt1"
          ~reason:"crashed: SIGKILL" ~attrs:[] ()
      with
      | Error m -> Alcotest.failf "flight write failed: %s" m
      | Ok path ->
          check_bool "file lands in dir" true
            (Filename.dirname path = dir && Sys.file_exists path);
          (match Dmc_util.Checkpoint.load path with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "postmortem is not valid JSON: %s" m);
          Sys.remove path;
          Unix.rmdir dir)

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let test_prometheus_text =
  with_registry (fun () ->
      Counter.add (Counter.make "serve.cache.hit") 3;
      List.iter
        (Dmc_obs.Histogram.observe
           (Dmc_obs.Histogram.make "serve.lat.request_us"))
        [ 10; 100; 1000 ];
      Dmc_obs.Gauge.set (Dmc_obs.Gauge.make "serve.queue.depth") 2.0;
      let text = Export.prometheus () in
      let lines =
        String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
      in
      check_bool "non-empty exposition" true (lines <> []);
      List.iter
        (fun line ->
          if String.length line > 0 && line.[0] <> '#' then begin
            (* every sample line is exactly "name[{labels}] value" *)
            match String.index_opt line ' ' with
            | None -> Alcotest.failf "sample line without a value: %S" line
            | Some i ->
                let value = String.sub line (i + 1) (String.length line - i - 1) in
                check_bool
                  (Printf.sprintf "value parses as float: %S" line)
                  true
                  (float_of_string_opt value <> None);
                String.iter
                  (fun c ->
                    let name_char =
                      (c >= 'a' && c <= 'z')
                      || (c >= 'A' && c <= 'Z')
                      || (c >= '0' && c <= '9')
                      || c = '_' || c = ':' || c = '{' || c = '}'
                      || c = '"' || c = '=' || c = '.' || c = ','
                    in
                    if not name_char then
                      Alcotest.failf "bad metric name byte %C in %S" c line)
                  (String.sub line 0 i)
          end)
        lines;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun needle -> check_bool needle true (contains text needle))
        [
          "# TYPE dmc_serve_cache_hit counter";
          "dmc_serve_cache_hit 3";
          "# TYPE dmc_serve_lat_request_us summary";
          "quantile=\"0.5\"";
          "dmc_serve_lat_request_us_count 3";
          "# TYPE dmc_serve_queue_depth gauge";
          "dmc_serve_queue_depth 2";
        ])

(* ------------------------------------------------------------------ *)
(* Snapshot / merge round-trip (the fork boundary without the fork)    *)

let test_snapshot_merge =
  with_registry (fun () ->
      let c = Counter.make "test.merge" in
      Counter.add c 5;
      Span.with_ "child.work" (fun () -> ());
      let snap = Registry.snapshot_json () in
      (* a fresh registry standing in for the supervisor *)
      Registry.reset ();
      Counter.add (Counter.make "test.merge") 2;
      Registry.merge_snapshot ~tid:3 snap;
      check "counters add on merge" 7 (Counter.value (Counter.make "test.merge"));
      let merged = ref None in
      Registry.iter_events (fun e ->
          if e.Registry.ev_name = "child.work" then merged := Some e);
      match !merged with
      | None -> Alcotest.fail "merged span not found"
      | Some e -> check "merged span carries worker tid" 3 e.Registry.ev_tid)

let test_merge_shift =
  with_registry (fun () ->
      (* Command workers live in their own epoch; the supervisor
         rebases their spans by the dispatch instant.  The shift must
         move timestamps and nothing else. *)
      Span.with_ "child.work" (fun () -> ());
      let ts0 = ref nan in
      Registry.iter_events (fun e ->
          if e.Registry.ev_name = "child.work" then ts0 := e.Registry.ev_ts);
      let snap = Registry.snapshot_json () in
      Registry.reset ();
      Registry.merge_snapshot ~tid:2 ~shift_us:5000.0 snap;
      let merged = ref None in
      Registry.iter_events (fun e ->
          if e.Registry.ev_name = "child.work" then merged := Some e);
      match !merged with
      | None -> Alcotest.fail "shifted span not found"
      | Some e ->
          Alcotest.(check (float 1e-6))
            "timestamp rebased by the shift" (!ts0 +. 5000.0)
            e.Registry.ev_ts;
          check "unshifted merge defaults to src 0... tid still set" 2
            e.Registry.ev_tid)

let test_merge_malformed =
  with_registry (fun () ->
      (* Garbage snapshots must be ignored, never raise: observability
         cannot turn a good worker result into a protocol error. *)
      Registry.merge_snapshot ~tid:1 Json.Null;
      Registry.merge_snapshot ~tid:1 (Json.Obj [ ("counters", Json.Int 3) ]);
      Registry.merge_snapshot ~tid:1
        (Json.Obj [ ("events", Json.List [ Json.String "junk" ]) ]);
      check "malformed merges leave no events" 0 (Registry.event_count ()))

(* ------------------------------------------------------------------ *)
(* Ipc frame-length cap (satellite of this PR)                         *)

let test_ipc_oversized_cap () =
  (* The header declares ~4 GiB; decode must refuse before allocating
     a payload buffer, and the message must name the limit. *)
  match Ipc.decode_frame "ffffffff" with
  | Ok _ -> Alcotest.fail "decoded a 4 GiB frame header"
  | Error (Ipc.Oversized n) ->
      check_bool "declared length preserved" true (n > Ipc.max_frame_bytes);
      let msg = Ipc.read_error_to_string (Ipc.Oversized n) in
      let limit = string_of_int Ipc.max_frame_bytes in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      check_bool "error names the limit" true (contains msg limit)
  | Error e -> Alcotest.failf "expected Oversized, got %s" (Ipc.read_error_to_string e)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

module Histogram = Dmc_obs.Histogram
module Gauge = Dmc_obs.Gauge

let test_hist_buckets () =
  check "zero maps to bucket 0" 0 (Registry.bucket_of_value 0);
  check "negative clamps to bucket 0" 0 (Registry.bucket_of_value (-5));
  check "one" 1 (Registry.bucket_of_value 1);
  check "two" 2 (Registry.bucket_of_value 2);
  check "three" 2 (Registry.bucket_of_value 3);
  check "four" 3 (Registry.bucket_of_value 4);
  (* the bucket bounds and the bucket function must agree *)
  for b = 1 to 40 do
    check "lo lands in its bucket" b (Registry.bucket_of_value (Registry.bucket_lo b));
    check "hi lands in its bucket" b (Registry.bucket_of_value (Registry.bucket_hi b))
  done;
  check "max_int clamps to last bucket" (Registry.hist_buckets - 1)
    (Registry.bucket_of_value max_int)

let test_hist_observe =
  with_registry (fun () ->
      let h = Histogram.make "test.hist" in
      List.iter (Histogram.observe h) [ 1; 2; 3; 4; 100 ];
      check "count" 5 (Histogram.count h);
      check "sum" 110 (Histogram.sum h);
      Alcotest.(check (float 1e-9)) "mean" 22.0 (Histogram.mean h);
      let p50 = Histogram.percentile h 50.0
      and p90 = Histogram.percentile h 90.0
      and p99 = Histogram.percentile h 99.0 in
      check_bool "quantiles are monotone" true (p50 <= p90 && p90 <= p99);
      check_bool "quantiles within bucket-midpoint range" true
        (p50 >= 1.0 && p99 <= 95.5);
      (* find-or-create, like counters *)
      Histogram.observe (Histogram.make "test.hist") 7;
      check "registration is idempotent" 6 (Histogram.count h))

let test_hist_disabled () =
  Registry.reset ();
  Registry.set_enabled false;
  let h = Histogram.make "test.hist.off" in
  Histogram.observe h 5;
  check "disabled histogram stays empty" 0 (Histogram.count h)

let test_hist_empty_percentile =
  with_registry (fun () ->
      let h = Histogram.make "test.hist.empty" in
      match Histogram.percentile h 50.0 with
      | exception Invalid_argument _ -> ()
      | v -> Alcotest.failf "percentile of empty histogram returned %g" v)

(* ------------------------------------------------------------------ *)
(* Gauges and the GC sampler                                           *)

let test_gauge_set_merge =
  with_registry (fun () ->
      let g = Gauge.make "test.gauge" in
      Gauge.set g 3.0;
      Alcotest.(check (float 0.)) "set/get" 3.0 (Gauge.get g);
      Registry.merge_gauge g 1.0;
      Alcotest.(check (float 0.)) "merge keeps max" 3.0 (Gauge.get g);
      Registry.merge_gauge g 9.0;
      Alcotest.(check (float 0.)) "merge raises to max" 9.0 (Gauge.get g))

let test_gc_gauges_sampled =
  with_registry (fun () ->
      Span.with_ "tick" (fun () -> ignore (Sys.opaque_identity (Array.make 256 0)));
      (* close_span sampled the GC: the heap gauge must be set and positive *)
      let g = Registry.gauge "gc.heap_words" in
      check_bool "gc.heap_words set by span close" true (Registry.(g.g_set));
      check_bool "heap is non-empty" true (Gauge.get g > 0.0))

(* ------------------------------------------------------------------ *)
(* Span-drop path                                                      *)

let test_span_drop =
  with_registry (fun () ->
      let restore = Registry.max_events () in
      Fun.protect
        ~finally:(fun () -> Registry.set_max_events restore)
        (fun () ->
          Registry.set_max_events 3;
          for i = 1 to 5 do
            Span.with_ (Printf.sprintf "drop.%d" i) (fun () -> ())
          done;
          check "buffer holds the cap" 3 (Registry.event_count ());
          check "overflow counted" 2 (Registry.dropped ());
          let profile = Export.profile () in
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          check_bool "profile reports the drop" true
            (contains profile "2 spans dropped: buffer full");
          (* the dropped count crosses the fork boundary like counters *)
          let snap = Registry.snapshot_json () in
          Registry.reset ();
          Registry.merge_snapshot ~tid:1 snap;
          check "dropped merges" 2 (Registry.dropped ())))

(* ------------------------------------------------------------------ *)
(* Exporter output always re-parses (property)                          *)

let test_export_json_escaping =
  (* Metric names come from code today, but the exporter must not
     depend on that: any byte string — quotes, backslashes, newlines,
     control bytes, non-ASCII — has to round-trip through the concrete
     JSON syntax. *)
  QCheck.Test.make ~count:200 ~name:"export JSON re-parses for any metric name"
    QCheck.(string_gen_of_size (Gen.int_range 1 20) Gen.char)
    (fun name ->
      Registry.reset ();
      Registry.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Registry.set_enabled false)
        (fun () ->
          Counter.incr (Counter.make name);
          Dmc_obs.Histogram.observe (Dmc_obs.Histogram.make name) 3;
          Gauge.set (Gauge.make name) 1.5;
          Span.with_ name (fun () -> ());
          match Json.parse (Json.to_string (Export.to_json ())) with
          | Ok _ -> true
          | Error m ->
              QCheck.Test.fail_reportf "name %S broke the exporter: %s" name m))

let test_export_json_nasty_names () =
  List.iter
    (fun name ->
      Registry.reset ();
      Registry.set_enabled true;
      Counter.incr (Counter.make name);
      Span.with_ name (fun () -> ());
      Registry.set_enabled false;
      let rendered = Json.to_string (Export.to_json ()) in
      match Json.parse rendered with
      | Ok doc ->
          let counters =
            match Json.mem doc "counters" with
            | Some (Json.Obj cs) -> cs
            | _ -> Alcotest.fail "counters object missing"
          in
          check_bool
            (Printf.sprintf "name %S survives the round-trip" name)
            true
            (List.mem_assoc name counters)
      | Error m -> Alcotest.failf "name %S broke the exporter: %s" name m)
    [ {|quo"te|}; {|back\slash|}; "line\nbreak"; "tab\there"; "caf\xc3\xa9" ]

(* ------------------------------------------------------------------ *)
(* Merge commutativity (randomized)                                    *)

let test_merge_commutative () =
  (* Counters, histograms, gauges and the dropped count merge with
     commutative operations (+, bucket-wise +, max), so any arrival
     order of worker snapshots must leave the same registry state.
     Spans are exempt: they append, and their order is wall-clock. *)
  let rng = Random.State.make [| 0x0b5; 42 |] in
  let random_snapshot () =
    Registry.reset ();
    Registry.set_enabled true;
    for _ = 1 to 1 + Random.State.int rng 4 do
      let c = Counter.make (Printf.sprintf "c.%d" (Random.State.int rng 3)) in
      Counter.add c (Random.State.int rng 100)
    done;
    for _ = 1 to 1 + Random.State.int rng 4 do
      let h = Histogram.make (Printf.sprintf "h.%d" (Random.State.int rng 2)) in
      Histogram.observe h (Random.State.int rng 10_000)
    done;
    Gauge.set (Gauge.make "g.0") (float_of_int (Random.State.int rng 1000));
    let snap = Registry.snapshot_json () in
    Registry.set_enabled false;
    snap
  in
  let snaps = List.init 6 (fun _ -> random_snapshot ()) in
  let merged_state order =
    Registry.reset ();
    Registry.set_enabled true;
    List.iteri (fun tid s -> Registry.merge_snapshot ~tid s) order;
    let doc = Export.to_json () in
    Registry.set_enabled false;
    (* compare only the commutative sections *)
    let section k = match Json.mem doc k with Some j -> Json.to_string j | None -> "" in
    section "counters" ^ section "hists" ^ section "gauges"
  in
  let forward = merged_state snaps and reverse = merged_state (List.rev snaps) in
  check_string "merge order is irrelevant" forward reverse;
  check_bool "merged state is non-trivial" true (String.length forward > 10)

(* ------------------------------------------------------------------ *)
(* Profile/to_json expose histogram stats and gauges                   *)

let test_export_metrics_sections =
  with_registry (fun () ->
      let h = Histogram.make "test.export.hist" in
      List.iter (Histogram.observe h) [ 1; 2; 4; 8; 16 ];
      Gauge.set (Gauge.make "test.export.gauge") 12.0;
      let profile = Export.profile () in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun section -> check_bool section true (contains profile section))
        [
          "== profile: counters ==";
          "== profile: histograms ==";
          "== profile: gauges ==";
          "== profile: spans ==";
          "test.export.hist";
          "test.export.gauge";
        ];
      let doc = Export.to_json () in
      (match Json.mem doc "hists" with
      | Some (Json.Obj hs) -> (
          match List.assoc_opt "test.export.hist" hs with
          | Some stats ->
              check "n exported" 5
                (Option.get (Option.bind (Json.mem stats "n") Json.as_int));
              List.iter
                (fun k ->
                  check_bool (k ^ " exported") true (Json.mem stats k <> None))
                [ "mean"; "p50"; "p90"; "p99" ]
          | None -> Alcotest.fail "histogram missing from to_json")
      | _ -> Alcotest.fail "hists section missing from to_json");
      match Json.mem doc "gauges" with
      | Some (Json.Obj gs) ->
          check_bool "gauge exported" true (List.mem_assoc "test.export.gauge" gs)
      | _ -> Alcotest.fail "gauges section missing from to_json")

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "disabled is free" `Quick test_counter_disabled;
          Alcotest.test_case "enabled accumulates" `Quick test_counter_enabled;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and depth" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "disabled is transparent" `Quick test_span_disabled;
        ] );
      ( "determinism",
        [ Alcotest.test_case "reset makes runs identical" `Quick test_reset_determinism ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "valid JSON, consistent ts/dur" `Quick test_chrome_trace;
          Alcotest.test_case "failed rung appears" `Quick test_chrome_trace_failed_rung;
        ] );
      ( "merge",
        [
          Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_merge;
          Alcotest.test_case "epoch shift rebases spans" `Quick test_merge_shift;
          Alcotest.test_case "malformed snapshot ignored" `Quick test_merge_malformed;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "per-host lanes in the chrome trace" `Quick
            test_source_lanes;
          Alcotest.test_case "instant events render as ph:i" `Quick
            test_instant_events;
        ] );
      ( "flight",
        [
          Alcotest.test_case "bounded ring keeps the tail" `Quick test_flight_ring;
          Alcotest.test_case "disabled is free" `Quick test_flight_disabled;
          Alcotest.test_case "span close auto-notes" `Quick
            test_flight_span_autonote;
          Alcotest.test_case "postmortem dump and write" `Quick
            test_flight_dump_and_write;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "text exposition parses" `Quick test_prometheus_text;
        ] );
      ( "ipc",
        [ Alcotest.test_case "length cap precedes allocation" `Quick test_ipc_oversized_cap ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_hist_buckets;
          Alcotest.test_case "observe/count/mean/quantiles" `Quick test_hist_observe;
          Alcotest.test_case "disabled is free" `Quick test_hist_disabled;
          Alcotest.test_case "empty percentile raises" `Quick test_hist_empty_percentile;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "set and max-merge" `Quick test_gauge_set_merge;
          Alcotest.test_case "gc sampler fills gc.*" `Quick test_gc_gauges_sampled;
        ] );
      ( "span-drop",
        [ Alcotest.test_case "cap, notice and merge" `Quick test_span_drop ] );
      ( "export",
        [
          QCheck_alcotest.to_alcotest test_export_json_escaping;
          Alcotest.test_case "nasty names round-trip" `Quick test_export_json_nasty_names;
          Alcotest.test_case "histogram stats and gauges exported" `Quick
            test_export_metrics_sections;
        ] );
      ( "merge-commutativity",
        [ Alcotest.test_case "snapshot order is irrelevant" `Quick test_merge_commutative ] );
    ]
