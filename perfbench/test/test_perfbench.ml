(* Self-tests of the benchmark's order statistics, failure accounting
   and child accounting. *)

open Perfbench

let check name cond = if not cond then failwith ("FAIL: " ^ name)
let close a b = Float.abs (a -. b) < 1e-9

let percentiles () =
  check "median of 1..5" (close (Stats.median [ 5.; 1.; 4.; 2.; 3. ]) 3.);
  check "median interpolates" (close (Stats.median [ 1.; 2. ]) 1.5);
  check "p0 is the minimum" (close (Stats.percentile [ 3.; 1.; 2. ] 0.) 1.);
  check "p100 is the maximum" (close (Stats.percentile [ 3.; 1.; 2. ] 100.) 3.);
  check "p90 of 0..10" (close (Stats.percentile (List.init 11 float_of_int) 90.) 9.);
  check "no samples raises"
    (match Stats.percentile [] 50. with _ -> false | exception Invalid_argument _ -> true)

(* No tail is reported with fewer than ten samples beyond it, and the
   one reported is the highest that qualifies. *)
let tail_rule () =
  check "19 samples: none" (Stats.tail_percentile 19 = None);
  check "20 samples: p50" (Stats.tail_percentile 20 = Some 50.);
  check "99 samples: p50" (Stats.tail_percentile 99 = Some 50.);
  check "100 samples: p90" (Stats.tail_percentile 100 = Some 90.);
  check "999 samples: p90" (Stats.tail_percentile 999 = Some 90.);
  check "1000 samples: p99" (Stats.tail_percentile 1000 = Some 99.);
  check "10000 samples: p99.9" (Stats.tail_percentile 10000 = Some 99.9);
  for n = 0 to 20_000 do
    let beyond p = float_of_int n *. (1. -. (p /. 100.)) in
    match Stats.tail_percentile n with
    | None -> check "nothing qualifies" (List.for_all (fun p -> beyond p < 10.) Stats.tail_ladder)
    | Some p ->
        check "ten beyond" (beyond p >= 10. -. 1e-9);
        check "highest qualifying"
          (List.for_all (fun q -> q <= p || beyond q < 10. -. 1e-9) Stats.tail_ladder)
  done

let accounting () =
  let t = Stats.tally () in
  check "empty tally" (Stats.failed_frac t = 0. && t.attempted = 0);
  Stats.record t (Ok ());
  Stats.record t (Error "first");
  Stats.record t (Ok ());
  Stats.record t (Error "second");
  check "attempted counts every record" (t.attempted = 4);
  check "failed counts errors" (t.failed = 2);
  check "failed_frac" (close (Stats.failed_frac t) 0.5);
  check "reasons in order" (List.rev t.reasons = [ "first"; "second" ])

(* A command started by the spawner reports its own peak resident set,
   not the one of the process that asked for it: this process holds
   96 MB while the command runs. *)
let spawned_peak () =
  let ballast = Bytes.make (96 * 1024 * 1024) 'x' in
  let s = Child.start_spawner "../spawner.exe" in
  let r =
    Fun.protect
      ~finally:(fun () -> Child.stop_spawner s)
      (fun () ->
        Child.call s (Child.Run { argv = [| "/bin/sh"; "-c"; "exit 3" |]; out = "spawned.out"; err = "spawned.err" }))
  in
  ignore (Sys.opaque_identity ballast);
  match r.outcome with
  | Child.Ran { usage; _ } ->
      check "exit code" (usage.code = 3);
      check "peak is the command's own" (usage.maxrss_kib > 0 && usage.maxrss_kib < 32 * 1024)
  | _ -> check "the spawner ran the command" false

let () =
  percentiles ();
  tail_rule ();
  accounting ();
  spawned_peak ();
  print_endline "perfbench self-tests: ok"
