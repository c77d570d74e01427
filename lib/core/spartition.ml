module Bitset = Dmc_util.Bitset
module Budget = Dmc_util.Budget
module Cdag = Dmc_cdag.Cdag
module Subgraph = Dmc_cdag.Subgraph

let blocks_of_color g color =
  let n = Cdag.n_vertices g in
  let h = 1 + Array.fold_left max (-1) color in
  let blocks = Array.init (max h 0) (fun _ -> Bitset.create n) in
  Array.iteri (fun v c -> if c >= 0 then Bitset.add blocks.(c) v) color;
  blocks

let check g ~s ~color =
  let n = Cdag.n_vertices g in
  if Array.length color <> n then Error "color array has wrong length"
  else begin
    let bad = ref None in
    Array.iteri
      (fun v c ->
        if !bad = None then
          if Cdag.is_input g v then begin
            if c <> -1 then bad := Some (Printf.sprintf "input %d is colored" v)
          end
          else if c < 0 then
            bad := Some (Printf.sprintf "compute vertex %d is uncolored" v))
      color;
    match !bad with
    | Some msg -> Error msg
    | None ->
        let blocks = blocks_of_color g color in
        let h = Array.length blocks in
        let nonempty = Array.to_list blocks |> List.filter (fun b -> not (Bitset.is_empty b)) in
        (* P2: no two-subset circuit. *)
        let adj = Array.make_matrix h h false in
        Cdag.iter_edges g (fun u v ->
            let cu = color.(u) and cv = color.(v) in
            if cu >= 0 && cv >= 0 && cu <> cv then adj.(cu).(cv) <- true);
        let circuit = ref None in
        for i = 0 to h - 1 do
          for j = i + 1 to h - 1 do
            if adj.(i).(j) && adj.(j).(i) && !circuit = None then
              circuit := Some (i, j)
          done
        done;
        (match !circuit with
        | Some (i, j) ->
            Error (Printf.sprintf "circuit between subsets %d and %d" i j)
        | None ->
            let violation =
              List.find_map
                (fun b ->
                  if Bitset.cardinal (Subgraph.boundary_in g b) > s then
                    Some "subset with |In| > S"
                  else if Bitset.cardinal (Subgraph.boundary_out g b) > s then
                    Some "subset with |Out| > S"
                  else None)
                nonempty
            in
            (match violation with
            | Some msg -> Error msg
            | None -> Ok (List.length nonempty)))
  end

let of_game g ~s moves =
  (match Rbw_game.validate g ~s moves with
  | Some e -> failwith (Printf.sprintf "Spartition.of_game: invalid game at step %d: %s" e.step e.reason)
  | None -> ());
  let n = Cdag.n_vertices g in
  let color = Array.make n (-1) in
  let phase = ref 0 and io_in_phase = ref 0 in
  List.iter
    (fun (m : Rbw_game.move) ->
      match m with
      | Rb_game.Load _ | Rb_game.Store _ ->
          if !io_in_phase = s then begin
            incr phase;
            io_in_phase := 0
          end;
          incr io_in_phase
      | Rb_game.Compute v -> color.(v) <- !phase
      | Rb_game.Delete _ -> ())
    moves;
  (* Compact colors so phases without computes disappear. *)
  let remap = Hashtbl.create 16 in
  let next = ref 0 in
  Array.map
    (fun c ->
      if c < 0 then -1
      else begin
        match Hashtbl.find_opt remap c with
        | Some c' -> c'
        | None ->
            let c' = !next in
            incr next;
            Hashtbl.replace remap c c';
            c'
      end)
    color

let compute_vertices g =
  Cdag.fold_vertices g
    (fun acc v -> if Cdag.is_input g v then acc else v :: acc)
    []
  |> List.rev |> Array.of_list

let c_nodes = Dmc_obs.Counter.make "spartition.nodes"
let c_masks = Dmc_obs.Counter.make "spartition.masks"
let h_block_count = Dmc_obs.Histogram.make "spartition.block_count"

let min_h_exact ?budget ?(max_nodes = 20_000_000) g ~s =
  let vs = compute_vertices g in
  let n' = Array.length vs in
  if n' = 0 then 0
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("s", string_of_int s); ("n_compute", string_of_int n') ]
      "spartition.min_h_exact"
    @@ fun () ->
    begin
    let n = Cdag.n_vertices g in
    let color = Array.make n (-1) in
    let best = ref n' in
    let nodes = ref 0 in
    (* Assign vertices one at a time to an existing block or a fresh
       one (canonical set-partition enumeration), validating complete
       assignments. *)
    let rec assign i used =
      (match budget with None -> () | Some b -> Budget.tick b);
      incr nodes;
      Dmc_obs.Counter.incr c_nodes;
      if !nodes > max_nodes then
        raise (Optimal.Too_large "Spartition.min_h_exact: node budget exhausted");
      if used >= !best then ()
      else if i = n' then begin
        (* A validity check walks the whole graph, so account for it
           proportionally — one tick per leaf would let the deadline
           overshoot by hundreds of O(n+e) checks. *)
        (match budget with None -> () | Some b -> Budget.tick_n b (1 + (n / 8)));
        match check g ~s ~color with
        | Ok h ->
            Dmc_obs.Histogram.observe h_block_count h;
            if h < !best then best := h
        | Error _ -> ()
      end
      else
        for c = 0 to min used (n' - 1) do
          color.(vs.(i)) <- c;
          assign (i + 1) (max used (c + 1));
          color.(vs.(i)) <- -1
        done
    in
    assign 0 0;
    !best
  end

let max_subset_exact ?budget g ~s =
  let vs = compute_vertices g in
  let n' = Array.length vs in
  let n = Cdag.n_vertices g in
  if n' > 22 || n > 62 then
    raise (Optimal.Too_large "Spartition.max_subset_exact: graph too large");
  if n' = 0 then 0
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("s", string_of_int s); ("n_compute", string_of_int n') ]
      "spartition.max_subset_exact"
    @@ fun () ->
    begin
    let popcount x =
      let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
      go x 0
    in
    let full_bit = Array.map (fun v -> 1 lsl v) vs in
    let preds =
      Array.map (fun v -> Cdag.fold_pred g v (fun m u -> m lor (1 lsl u)) 0) vs
    in
    let succs =
      Array.map (fun v -> Cdag.fold_succ g v (fun m w -> m lor (1 lsl w)) 0) vs
    in
    let is_out = Array.map (Cdag.is_output g) vs in
    let best = ref 0 in
    for mask = 1 to (1 lsl n') - 1 do
      (match budget with None -> () | Some b -> Budget.tick b);
      Dmc_obs.Counter.incr c_masks;
      let size = popcount mask in
      if size > !best then begin
        let w_full = ref 0 and preds_union = ref 0 in
        for i = 0 to n' - 1 do
          if mask land (1 lsl i) <> 0 then begin
            w_full := !w_full lor full_bit.(i);
            preds_union := !preds_union lor preds.(i)
          end
        done;
        if popcount (!preds_union land lnot !w_full) <= s then begin
          let out = ref 0 in
          for i = 0 to n' - 1 do
            if
              mask land (1 lsl i) <> 0
              && (is_out.(i) || succs.(i) land lnot !w_full <> 0)
            then incr out
          done;
          if !out <= s then best := size
        end
      end
    done;
    !best
  end

let lemma1_bound ~s ~h = max 0 (s * (h - 1))

let corollary1_bound ~s ~n_compute ~u =
  if u <= 0 then invalid_arg "Spartition.corollary1_bound: u must be positive";
  let bound =
    ceil (float_of_int s *. ((float_of_int n_compute /. float_of_int u) -. 1.0))
  in
  max 0 (int_of_float bound)

let lower_bound_exact ?budget ?max_nodes g ~s =
  let h = min_h_exact ?budget ?max_nodes g ~s:(2 * s) in
  lemma1_bound ~s ~h

let lower_bound_u ?budget g ~s =
  let u = max_subset_exact ?budget g ~s:(2 * s) in
  if u = 0 then 0
  else corollary1_bound ~s ~n_compute:(Cdag.n_compute g) ~u
