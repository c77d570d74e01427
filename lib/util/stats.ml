type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

(* Percentile over a weighted multiset, matching [percentile] on the
   expanded array exactly: a pair [(v, w)] stands for [w] copies of
   [v], the rank is [p/100 * (W - 1)] over the [W] virtual samples,
   and ranks falling between the last copy of one value and the first
   copy of the next interpolate linearly.  Integer weights keep the
   result bit-deterministic, which is what lets merged histogram
   quantiles stay byte-identical across [--jobs] widths. *)
let percentile_weighted pairs p =
  if Array.length pairs = 0 then invalid_arg "Stats.percentile_weighted: empty";
  if p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile_weighted: p out of range";
  let pairs = Array.copy pairs in
  Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
  let total =
    Array.fold_left
      (fun acc (_, w) ->
        if w < 0 then invalid_arg "Stats.percentile_weighted: negative weight";
        acc + w)
      0 pairs
  in
  if total = 0 then invalid_arg "Stats.percentile_weighted: zero total weight";
  let rank = p /. 100.0 *. float_of_int (total - 1) in
  let lo_rank = int_of_float (Float.floor rank) in
  let frac = rank -. float_of_int lo_rank in
  (* value of the virtual sample at integer rank r (0-based) *)
  let value_at r =
    let r = min r (total - 1) in
    let rec go i cum =
      let _, w = pairs.(i) in
      if r < cum + w then fst pairs.(i) else go (i + 1) (cum + w)
    in
    go 0 0
  in
  let lo = value_at lo_rank and hi = value_at (lo_rank + 1) in
  (lo *. (1.0 -. frac)) +. (hi *. frac)

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty";
  let n = Array.length xs in
  let m = mean xs in
  let var =
    if n < 2 then 0.0
    else
      Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
      /. float_of_int (n - 1)
  in
  {
    n;
    mean = m;
    stddev = sqrt var;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
    median = percentile xs 50.0;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.4g sd=%.4g min=%.4g med=%.4g max=%.4g"
    s.n s.mean s.stddev s.min s.median s.max
