type t = {
  name : string;
  nodes : int;
  cores_per_node : int;
  memory_gb_per_node : float;
  cache_mb : float;
  vertical_balance : float;
  horizontal_balance : float;
}

let bgq =
  {
    name = "IBM BG/Q";
    nodes = 2048;
    cores_per_node = 16;
    memory_gb_per_node = 16.0;
    cache_mb = 32.0;
    vertical_balance = 0.052;
    horizontal_balance = 0.049;
  }

let xt5 =
  {
    name = "Cray XT5";
    nodes = 9408;
    cores_per_node = 12;
    memory_gb_per_node = 16.0;
    cache_mb = 6.0;
    vertical_balance = 0.0256;
    horizontal_balance = 0.058;
  }

let table1 = [ bgq; xt5 ]

let word_bytes = 8.0

let cache_words m = int_of_float (m.cache_mb *. 1024.0 *. 1024.0 /. word_bytes)

let memory_words_per_node m =
  int_of_float (m.memory_gb_per_node *. 1024.0 *. 1024.0 *. 1024.0 /. word_bytes)

let hierarchy m ~s1 =
  Hierarchy.cluster ~nodes:m.nodes ~cores:m.cores_per_node ~s1
    ~l2:(cache_words m) ~mem:(memory_words_per_node m)

(* Estimated balances for post-2014 systems, from public peak numbers:
   vertical = (memory GB/s / 8) / peak GFLOP/s per node; horizontal =
   (injection GB/s / 8) / peak GFLOP/s per node.  Rounded to two
   significant digits; these are our estimates, not Table-1 data. *)
let extended =
  [
    (2012, bgq);
    (2009, xt5);
    ( 2018,
      {
        name = "Summit node (est.)";
        nodes = 4608;
        cores_per_node = 44;
        memory_gb_per_node = 512.0;
        cache_mb = 36.0;
        (* 6x V100: ~5.4 TB/s HBM, ~47 TF FP64; EDR IB 2x12.5 GB/s *)
        vertical_balance = 0.014;
        horizontal_balance = 0.000066;
      } );
    ( 2020,
      {
        name = "Fugaku node (est.)";
        nodes = 158976;
        cores_per_node = 48;
        memory_gb_per_node = 32.0;
        cache_mb = 32.0;
        (* 1 TB/s HBM2, 3.4 TF FP64; TofuD ~40.8 GB/s injection *)
        vertical_balance = 0.037;
        horizontal_balance = 0.0015;
      } );
    ( 2022,
      {
        name = "Frontier node (est.)";
        nodes = 9408;
        cores_per_node = 64;
        memory_gb_per_node = 512.0;
        cache_mb = 32.0;
        (* 4x MI250X: ~13 TB/s HBM, ~191 TF FP64; Slingshot 4x25 GB/s *)
        vertical_balance = 0.0085;
        horizontal_balance = 0.000065;
      } );
  ]

let pp ppf m =
  Format.fprintf ppf
    "%s: %d nodes x %d cores, %.0f GB/node, %.1f MB cache, balance v=%.4f h=%.4f"
    m.name m.nodes m.cores_per_node m.memory_gb_per_node m.cache_mb
    m.vertical_balance m.horizontal_balance

let find name =
  let canon s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun m -> canon m.name = canon name) table1
