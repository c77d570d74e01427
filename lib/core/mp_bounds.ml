module Cdag = Dmc_cdag.Cdag
module Budget = Dmc_util.Budget

type info = {
  name : string;
  kind : Bounds.kind;
  doc : string;
}

let engines =
  [
    {
      name = "mp-comm-lb";
      kind = Bounds.Lower;
      doc =
        "communication LB: sequential wavefront bound at capacity p*S \
         (one processor with the pooled fast memory simulates the game)";
    };
    {
      name = "mp-comm-ub";
      kind = Bounds.Upper;
      doc =
        "communication UB: I/O of a valid p-processor Belady schedule \
         (cross-processor values travel store -> load through slow memory)";
    };
    {
      name = "mp-time-lb";
      kind = Bounds.Lower;
      doc =
        "makespan LB: max of the critical path and the busiest \
         processor's ceil-share of compute + g*comm work";
    };
    {
      name = "mp-time-ub";
      kind = Bounds.Upper;
      doc =
        "makespan UB: list-scheduling makespan of the replayed \
         p-processor Belady schedule (compute = 1, I/O = g)";
    };
    {
      name = "pc-io-lb";
      kind = Bounds.Lower;
      doc =
        "partial-computation I/O LB: the I/O floor (inputs read + \
         outputs written; S-partition arguments do not survive partial \
         recomputation)";
    };
    {
      name = "pc-io-ub";
      kind = Bounds.Upper;
      doc =
        "partial-computation I/O UB: I/O of a valid Begin/Absorb/Finish \
         Belady schedule (two red pebbles cover any in-degree)";
    };
  ]

let engine_names = List.map (fun e -> e.name) engines

let find name = List.find_opt (fun e -> e.name = name) engines

let is_engine name = find name <> None

let kind_of name = Option.map (fun e -> e.kind) (find name)

(* Critical path length in compute vertices: a makespan floor under
   unit compute cost, independent of p and S. *)
let span g =
  let depth = Array.make (Cdag.n_vertices g) 0 in
  let best = ref 0 in
  Array.iter
    (fun v ->
      if not (Cdag.is_input g v) then begin
        let d = 1 + Cdag.fold_pred g v (fun acc u -> max acc depth.(u)) 0 in
        depth.(v) <- d;
        if d > !best then best := d
      end)
    (Dmc_cdag.Topo.order g);
  !best

let g_cost = 1

let plan ?(samples = 64) g ~p ~s engine =
  if p <= 0 then invalid_arg "Mp_bounds.row: p must be positive";
  if s <= 0 then invalid_arg "Mp_bounds.row: s must be positive";
  let floor = Bounds.io_floor g in
  (* IO_mp(p, S) >= IO_1(p * S): the pooled-memory simulation. *)
  let comm_lb_exact b =
    Parallel_bounds.mp_comm_from_sequential ~p
      ~seq_lb:(fun ~s ->
        Wavefront.lower_bound_via (Wavefront.wmax_exact ?budget:b) g ~s)
      ~s
    |> max floor
  in
  let comm_lb_sampled b =
    let rng = Dmc_util.Rng.create 0x5eed in
    Parallel_bounds.mp_comm_from_sequential ~p
      ~seq_lb:(fun ~s ->
        Wavefront.lower_bound_via
          (fun g' -> Wavefront.wmax_sampled_anytime ?budget:b rng g' ~samples)
          g ~s)
      ~s
    |> max floor
  in
  let time_lb ~comm_lb =
    Parallel_bounds.mp_time_lower ~p ~g_cost ~work:(Cdag.n_compute g)
      ~span:(span g) ~comm_lb
  in
  let replay_makespan moves =
    match Mp_game.run ~g_cost g ~p ~s moves with
    | Ok stats -> stats.Mp_game.makespan
    | Error e ->
        Budget.internal_error ~where:"Mp_bounds"
          "schedule rejected at step %d: %s" e.Mp_game.step e.Mp_game.reason
  in
  let trivial f =
    if Bounds.fits_trivial g ~s then f ()
    else failwith "Mp_bounds: S too small for the trivial schedule"
  in
  let rung name f = Bounds.Rung (name, f) in
  match engine with
  | "mp-comm-lb" ->
      [ rung "exact" comm_lb_exact; rung "sampled" comm_lb_sampled;
        rung "floor" (fun _ -> floor) ]
  | "mp-time-lb" ->
      [
        rung "exact" (fun b -> time_lb ~comm_lb:(comm_lb_exact b));
        rung "sampled" (fun b -> time_lb ~comm_lb:(comm_lb_sampled b));
        rung "floor" (fun _ -> time_lb ~comm_lb:floor);
      ]
  | "mp-comm-ub" ->
      [
        rung "belady" (fun b ->
            Strategy.mp_io ?budget:b ~policy:Strategy.Belady g ~p ~s);
        rung "trivial" (fun _ -> trivial (fun () -> Strategy.mp_trivial_io g));
      ]
  | "mp-time-ub" ->
      [
        rung "belady" (fun b ->
            replay_makespan
              (Strategy.mp_schedule ?budget:b ~policy:Strategy.Belady g ~p ~s));
        rung "trivial" (fun _ ->
            trivial (fun () -> replay_makespan (Strategy.mp_trivial g ~p)));
      ]
  | "pc-io-lb" -> [ rung "floor" (fun _ -> floor) ]
  | "pc-io-ub" ->
      [
        rung "belady" (fun b ->
            Strategy.pc_io ?budget:b ~policy:Strategy.Belady g ~s);
        rung "trivial" (fun _ ->
            if s >= 2 then Strategy.trivial_io g
            else failwith "Mp_bounds: S too small for the pc schedule");
      ]
  | _ -> invalid_arg ("Mp_bounds.row: unknown engine " ^ engine)

let row ?samples mode g ~p ~s engine =
  let steps = plan ?samples g ~p ~s engine in
  Bounds.run_ladder mode ~engine ~kind:(Option.get (kind_of engine)) steps
