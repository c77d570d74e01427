type verdict = Bandwidth_bound | Not_bandwidth_bound | Indeterminate

let verdict_to_string = function
  | Bandwidth_bound -> "bandwidth-bound"
  | Not_bandwidth_bound -> "not bandwidth-bound"
  | Indeterminate -> "indeterminate"

let lb_per_flop ~lb_per_unit ~units ~work =
  if work <= 0.0 then invalid_arg "Balance.lb_per_flop: non-positive work";
  lb_per_unit *. float_of_int units /. work

let classify_lower ~lb_per_flop ~balance =
  if lb_per_flop > balance then Bandwidth_bound else Indeterminate

let classify_upper ~ub_per_flop ~balance =
  if ub_per_flop < balance then Not_bandwidth_bound else Indeterminate

let classify ~lb_per_flop ~ub_per_flop ~balance =
  if lb_per_flop > ub_per_flop then
    invalid_arg "Balance.classify: lower bound exceeds upper bound";
  if lb_per_flop > balance then Bandwidth_bound
  else if ub_per_flop < balance then Not_bandwidth_bound
  else Indeterminate
