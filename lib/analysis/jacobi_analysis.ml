module Table = Dmc_util.Table
module Machines = Dmc_machine.Machines
module Balance = Dmc_machine.Balance
module Analytic = Dmc_core.Analytic

type threshold_row = {
  label : string;
  cache_words : int;
  balance : float;
  max_dim : float;
  bound_at : int -> Balance.verdict;
}

let make_row ~label ~cache_words ~balance =
  {
    label;
    cache_words;
    balance;
    max_dim = Analytic.jacobi_max_dim ~s:cache_words ~balance;
    bound_at =
      (fun d ->
        Balance.classify_lower
          ~lb_per_flop:(Analytic.jacobi_balance_threshold ~d ~s:cache_words)
          ~balance);
  }

let bgq_dram_l2 =
  make_row ~label:"IBM BG/Q DRAM->L2"
    ~cache_words:(Machines.cache_words Machines.bgq)
    ~balance:Machines.bgq.Machines.vertical_balance

(* The L2->L1 boundary of BG/Q: 16 KB L1 data cache (2048 words) and a
   2 words/FLOP L1 balance — the parameters that reproduce the paper's
   reported d <= 96. *)
let bgq_l2_l1 = make_row ~label:"IBM BG/Q L2->L1" ~cache_words:2048 ~balance:2.0

let thresholds () =
  bgq_dram_l2 :: bgq_l2_l1
  :: List.filter_map
       (fun (m : Machines.t) ->
         if m.name = Machines.bgq.Machines.name then None
         else
           Some
             (make_row
                ~label:(m.name ^ " DRAM->L2")
                ~cache_words:(Machines.cache_words m)
                ~balance:m.vertical_balance))
       Machines.table1

let table () =
  let t =
    Table.create
      ~headers:[ "Boundary"; "S (words)"; "balance"; "max dim"; "d=2"; "d=3"; "d=5" ]
  in
  List.iter
    (fun r ->
      let verdict d = Balance.verdict_to_string (r.bound_at d) in
      Table.add_row t
        [
          r.label;
          Table.fmt_int r.cache_words;
          Printf.sprintf "%.4f" r.balance;
          Printf.sprintf "%.2f" r.max_dim;
          verdict 2;
          verdict 3;
          verdict 5;
        ])
    (thresholds ());
  t

type tightness = {
  d : int;
  n : int;
  steps : int;
  s : int;
  analytic_lb : float;
  skewed_ub : int;
  natural_ub : int;
  ratio : float;
}

let tightness ?(d = 1) ?(n = 64) ?(steps = 16) ?(s = 18) () =
  let dims = List.init d (fun _ -> n) in
  let st = Dmc_gen.Stencil.jacobi ~shape:Dmc_gen.Stencil.Star ~dims ~steps () in
  let tile =
    (* S must hold two tile-wide planes plus halo slack, so size the
       tile at a third of the per-dimension budget. *)
    max 2 (int_of_float (float_of_int (s / 3) ** (1.0 /. float_of_int d)))
  in
  let skewed = Dmc_gen.Stencil.skewed_order st ~tile in
  let natural = Dmc_gen.Stencil.natural_order st in
  let io order = Dmc_core.Strategy.io ~order st.graph ~s in
  let analytic_lb = Analytic.jacobi_lb ~d ~n ~steps ~s ~p:1 in
  let skewed_ub = io skewed in
  {
    d;
    n;
    steps;
    s;
    analytic_lb;
    skewed_ub;
    natural_ub = io natural;
    ratio = float_of_int skewed_ub /. analytic_lb;
  }

type horizontal_check = {
  dims : int list;
  blocks : int list;
  steps : int;
  measured_ghosts : int;
  predicted_ghosts : int;
}

let horizontal ?(dims = [ 12; 12 ]) ?(blocks = [ 2; 2 ]) ?(steps = 3) () =
  let st = Dmc_gen.Stencil.jacobi ~shape:Dmc_gen.Stencil.Star ~dims ~steps () in
  let grid = st.grid in
  let nodes = List.fold_left ( * ) 1 blocks in
  let owner_of_point = Dmc_sim.Partitioner.block_owner ~dims ~blocks in
  let npts = Dmc_gen.Grid.size grid in
  let owner v = owner_of_point (Dmc_gen.Grid.coord grid (v mod npts)) in
  let config =
    { Dmc_sim.Exec.capacities = [| 64; npts * (steps + 1) |]; nodes; owner }
  in
  let result =
    Dmc_sim.Exec.run st.graph ~order:(Dmc_gen.Stencil.natural_order st) config
  in
  {
    dims;
    blocks;
    steps;
    measured_ghosts = result.horizontal_total;
    predicted_ghosts = Dmc_sim.Partitioner.ghost_words ~dims ~blocks ~star:true * steps;
  }

(* Section 5.4.2: ghost words per block against the block's compute
   volume, ((B+2)^d - B^d) / B^d ~ 2d/B, as the block side B sweeps. *)
let surface_to_volume_table ?(d = 3) ~blocks () =
  let t =
    Table.create
      ~headers:[ "block side B"; "ghost words"; "volume B^d"; "ghost/volume"; "~2d/B" ]
  in
  List.iter
    (fun b ->
      let ghost = Analytic.ghost_cells ~d ~block:b in
      let volume = float_of_int b ** float_of_int d in
      Table.add_row t
        [
          string_of_int b;
          Printf.sprintf "%.0f" ghost;
          Printf.sprintf "%.0f" volume;
          Printf.sprintf "%.4f" (ghost /. volume);
          Printf.sprintf "%.4f" (2.0 *. float_of_int d /. float_of_int b);
        ])
    blocks;
  t

(* ------------------------------------------------------------------ *)
(* Experiment parts: thresholds, Theorem-10 tightness, horizontal
   ghost-cell traffic, and the surface-to-volume law. *)

module J = Dmc_util.Json
module P = Experiment.P

let thresholds_part () =
  let rows = thresholds () in
  let d3_ok =
    List.for_all
      (fun r -> r.max_dim < 3.0 || r.bound_at 3 <> Balance.Bandwidth_bound)
      rows
  in
  J.Obj
    [
      ("table", Doc.block_to_json (Doc.Table (table ())));
      ("bgq_max_dim", J.Float bgq_dram_l2.max_dim);
      ("l2l1_max_dim", J.Float bgq_l2_l1.max_dim);
      ("d3_ok", J.Bool d3_ok);
    ]

let tightness_to_json (x : tightness) =
  J.Obj
    [
      ("d", J.Int x.d);
      ("n", J.Int x.n);
      ("steps", J.Int x.steps);
      ("s", J.Int x.s);
      ("analytic_lb", J.Float x.analytic_lb);
      ("skewed_ub", J.Int x.skewed_ub);
      ("natural_ub", J.Int x.natural_ub);
      ("ratio", J.Float x.ratio);
    ]

let tightness_of_json p =
  {
    d = P.int p "d";
    n = P.int p "n";
    steps = P.int p "steps";
    s = P.int p "s";
    analytic_lb = P.float p "analytic_lb";
    skewed_ub = P.int p "skewed_ub";
    natural_ub = P.int p "natural_ub";
    ratio = P.float p "ratio";
  }

(* [t2] scales [t] by 2x in both [n] and [steps], so the three runs
   live in one part. *)
let tightness_part () =
  let t = tightness () in
  let t2 = tightness ~n:(2 * t.n) ~steps:(2 * t.steps) () in
  let t2d = tightness ~d:2 ~n:16 ~steps:8 ~s:48 () in
  J.List (List.map tightness_to_json [ t; t2; t2d ])

let horizontal_to_json (h : horizontal_check) =
  J.Obj
    [
      ("dims", J.List (List.map (fun d -> J.Int d) h.dims));
      ("blocks", J.List (List.map (fun b -> J.Int b) h.blocks));
      ("steps", J.Int h.steps);
      ("measured_ghosts", J.Int h.measured_ghosts);
      ("predicted_ghosts", J.Int h.predicted_ghosts);
    ]

let ints p k =
  List.map
    (fun v ->
      match J.as_int v with
      | Some i -> i
      | None -> Experiment.malformed "experiment payload: field %S holds a non-int" k)
    (P.list p k)

let horizontal_of_json p =
  {
    dims = ints p "dims";
    blocks = ints p "blocks";
    steps = P.int p "steps";
    measured_ghosts = P.int p "measured_ghosts";
    predicted_ghosts = P.int p "predicted_ghosts";
  }

let parts =
  [
    { Experiment.part = "thresholds"; run = thresholds_part };
    { Experiment.part = "tightness"; run = tightness_part };
    {
      Experiment.part = "horizontal";
      run = (fun () -> horizontal_to_json (horizontal ()));
    };
    {
      Experiment.part = "surface";
      run =
        (fun () ->
          J.Obj
            [
              ( "table",
                Doc.block_to_json
                  (Doc.Table
                     (surface_to_volume_table ~blocks:[ 4; 8; 16; 32; 64 ] ()))
              );
            ]);
    };
  ]

let doc_of_parts payloads =
  match payloads with
  | [ th; ti; ho; su ] ->
      let tights =
        match J.as_list ti with
        | Some l -> List.map tightness_of_json l
        | None -> Experiment.malformed "jacobi tightness payload is not a list"
      in
      let t, t2, t2d =
        match tights with
        | [ a; b; c ] -> (a, b, c)
        | _ -> Experiment.malformed "jacobi expects 3 tightness records"
      in
      let h = horizontal_of_json ho in
      let bgq_max_dim = P.float th "bgq_max_dim" in
      let l2l1_max_dim = P.float th "l2l1_max_dim" in
      let tightness_lines =
        String.concat ""
          (List.map
             (fun (x : tightness) ->
               Printf.sprintf
                 "  d=%d n=%d steps=%d S=%d: analytic LB = %.1f, skewed-tile UB = %d (%.1fx), natural order UB = %d (%.1fx)\n"
                 x.d x.n x.steps x.s x.analytic_lb x.skewed_ub x.ratio
                 x.natural_ub
                 (float_of_int x.natural_ub /. x.analytic_lb))
             [ t; t2; t2d ])
      in
      {
        Doc.name = "jacobi";
        blocks =
          [
            Doc.Section "Jacobi (Sec 5.4): dimension thresholds from the machine balance";
            Experiment.block_field th "table";
            Doc.Section "Jacobi: Theorem-10 tightness (skewed tiles vs the bound)";
            Doc.Text tightness_lines;
            Doc.Section
              "Jacobi: horizontal ghost-cell traffic (12x12 grid, 2x2 nodes, 3 steps)";
            Doc.Text
              (Printf.sprintf "  measured = %d words, predicted = %d words\n"
                 h.measured_ghosts h.predicted_ghosts);
            Doc.Text
              "\n  surface-to-volume (why the network never binds a big block, d = 3):\n\n";
            Experiment.block_field su "table";
            Doc.check "BG/Q DRAM->L2 threshold reproduces the paper's 4.83"
              (Float.abs (bgq_max_dim -. 4.83) < 0.1);
            Doc.check "BG/Q L2->L1 threshold reproduces the paper's 96"
              (Float.abs (l2l1_max_dim -. 96.0) < 1.0);
            Doc.check "3D stencils are not bandwidth-bound below the threshold"
              (P.bool th "d3_ok");
            Doc.check "skewed tiling beats the natural order by >= 3x"
              (3 * t.skewed_ub <= t.natural_ub);
            Doc.check
              "tiled I/O tracks the Theorem-10 \xce\x98(nT/S) shape (stable ratio under 2x scaling)"
              (Float.abs (t2.ratio -. t.ratio) < 0.35 *. t.ratio);
            Doc.check "Theorem-10 LB below the measured tiled execution"
              (t.analytic_lb <= float_of_int t.skewed_ub);
            Doc.check "2D tiles also beat the natural order under the d=2 bound"
              (t2d.analytic_lb <= float_of_int t2d.skewed_ub
              && t2d.skewed_ub < t2d.natural_ub);
            Doc.check "horizontal traffic matches the ghost-cell formula"
              (h.measured_ghosts = h.predicted_ghosts);
          ];
      }
  | _ -> Experiment.malformed "jacobi experiment expects 4 part payloads"
