let check_pos name x = if x <= 0 then invalid_arg ("Analytic: " ^ name ^ " must be positive")

let pow_int x k =
  if k < 0 then invalid_arg "Analytic.pow_int: negative exponent";
  let rec go acc x k =
    if k = 0 then acc
    else if k land 1 = 1 then go (acc *. x) (x *. x) (k lsr 1)
    else go acc (x *. x) (k lsr 1)
  in
  go 1.0 x k

let fi = float_of_int

let matmul_lb ~n ~s =
  check_pos "n" n;
  check_pos "s" s;
  fi n ** 3.0 /. (2.0 *. sqrt (2.0 *. fi s))

let outer_product_io ~n =
  check_pos "n" n;
  (2.0 *. fi n) +. (fi n *. fi n)

let composite_io_upper ~n =
  check_pos "n" n;
  (4.0 *. fi n) +. 1.0

let fft_lb ~n ~s =
  check_pos "n" n;
  if s < 2 then invalid_arg "Analytic.fft_lb: s must be >= 2";
  let log2 x = log x /. log 2.0 in
  fi n *. log2 (fi n) /. (2.0 *. log2 (fi s))

let grid_points ~d ~n = pow_int (fi n) d

let jacobi_lb ~d ~n ~steps ~s ~p =
  check_pos "d" d;
  check_pos "n" n;
  check_pos "steps" steps;
  check_pos "s" s;
  check_pos "p" p;
  grid_points ~d ~n *. fi steps
  /. (4.0 *. fi p *. ((2.0 *. fi s) ** (1.0 /. fi d)))

let ghost_cells ~d ~block =
  check_pos "d" d;
  check_pos "block" block;
  pow_int (fi block +. 2.0) d -. pow_int (fi block) d

let jacobi_balance_threshold ~d ~s =
  check_pos "d" d;
  check_pos "s" s;
  1.0 /. (4.0 *. ((2.0 *. fi s) ** (1.0 /. fi d)))

let jacobi_max_dim ~s ~balance =
  check_pos "s" s;
  if balance <= 0.0 then invalid_arg "Analytic.jacobi_max_dim: balance";
  4.0 *. balance *. (log (2.0 *. fi s) /. log 2.0)

let cg_vertical_lb ~d ~n ~steps ~p =
  check_pos "p" p;
  check_pos "steps" steps;
  6.0 *. grid_points ~d ~n *. fi steps /. fi p

let cg_vertical_lb_exact ~d ~n ~steps ~s ~p =
  check_pos "p" p;
  check_pos "s" s;
  check_pos "steps" steps;
  let nd = grid_points ~d ~n in
  Float.max 0.0 (2.0 *. fi steps *. ((3.0 *. nd) -. (2.0 *. fi s)) /. fi p)

let cg_flops ~d ~n ~steps =
  check_pos "steps" steps;
  20.0 *. grid_points ~d ~n *. fi steps

let cg_horizontal_ub ~d ~block ~steps =
  check_pos "steps" steps;
  ghost_cells ~d ~block *. fi steps

let cg_vertical_per_flop () = 6.0 /. 20.0

let cg_horizontal_per_flop ~d ~n ~nodes =
  check_pos "n" n;
  check_pos "nodes" nodes;
  6.0 *. (fi nodes ** (1.0 /. fi d)) /. (20.0 *. fi n)

let gmres_vertical_lb ~d ~n ~m ~p =
  check_pos "m" m;
  check_pos "p" p;
  6.0 *. grid_points ~d ~n *. fi m /. fi p

let gmres_vertical_lb_exact ~d ~n ~m ~s ~p =
  check_pos "m" m;
  check_pos "p" p;
  check_pos "s" s;
  let nd = grid_points ~d ~n in
  Float.max 0.0 (2.0 *. fi m *. ((3.0 *. nd) -. (2.0 *. fi s)) /. fi p)

let gmres_vertical_per_flop ~m =
  check_pos "m" m;
  6.0 /. (fi m +. 20.0)

let gmres_horizontal_per_flop ~d ~n ~m ~nodes =
  check_pos "n" n;
  check_pos "m" m;
  check_pos "nodes" nodes;
  6.0 *. (fi nodes ** (1.0 /. fi d)) /. (fi n *. fi m)
