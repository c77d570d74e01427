(* Order statistics and failure accounting for the benchmark's reports.
   Kept free of the dmc libraries so the self-tests exercise it alone. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the "type 7" estimator),
   [p] in [0, 100]. *)
let percentile xs p =
  match sorted xs with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a ->
      let n = Array.length a in
      let h = float_of_int (n - 1) *. p /. 100. in
      let lo = int_of_float (Float.floor h) in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

(* The percentiles a tail may be reported at, highest first. *)
let tail_ladder = [ 99.9; 99.; 90.; 50. ]

(* The highest percentile in [tail_ladder] with at least ten samples
   beyond it: a tail read from fewer points than that is one sample's
   noise, not a property of the system.  [None] below ten samples. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10. -. 1e-9)
    tail_ladder

(* Attempted/failed operation counts.  Every operation the benchmark
   starts is recorded exactly once, with the first reason it failed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** most recent first *)
}

let tally () = { attempted = 0; failed = 0; reasons = [] }

let record t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error reason ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      t.reasons <- reason :: t.reasons

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted
