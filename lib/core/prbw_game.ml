module Bitset = Dmc_util.Bitset
module Cdag = Dmc_cdag.Cdag
module Hierarchy = Dmc_machine.Hierarchy

type move =
  | Input of { unit_id : int; v : Cdag.vertex }
  | Output of { unit_id : int; v : Cdag.vertex }
  | Remote_get of { src : int; dst : int; v : Cdag.vertex }
  | Move_up of { level : int; unit_id : int; v : Cdag.vertex }
  | Move_down of { level : int; unit_id : int; v : Cdag.vertex }
  | Compute of { proc : int; v : Cdag.vertex }
  | Delete of { level : int; unit_id : int; v : Cdag.vertex }

let pp_move ppf = function
  | Input { unit_id; v } -> Format.fprintf ppf "input u%d v%d" unit_id v
  | Output { unit_id; v } -> Format.fprintf ppf "output u%d v%d" unit_id v
  | Remote_get { src; dst; v } -> Format.fprintf ppf "get u%d<-u%d v%d" dst src v
  | Move_up { level; unit_id; v } ->
      Format.fprintf ppf "up L%d u%d v%d" level unit_id v
  | Move_down { level; unit_id; v } ->
      Format.fprintf ppf "down L%d u%d v%d" level unit_id v
  | Compute { proc; v } -> Format.fprintf ppf "compute p%d v%d" proc v
  | Delete { level; unit_id; v } ->
      Format.fprintf ppf "delete L%d u%d v%d" level unit_id v

type stats = {
  loads : int;
  stores : int;
  remote_gets : int;
  remote_gets_per_unit : int array;
  move_up : int array;
  move_down : int array;
  move_down_per_unit : int array array;
  computes_per_proc : int array;
  max_occupancy : int array array;
}

let boundary_traffic stats ~level =
  let levels = Array.length stats.move_up in
  if level < 2 || level > levels then
    invalid_arg "Prbw_game.boundary_traffic: level out of range";
  stats.move_up.(level - 2) + stats.move_down.(level - 1)

type error = { step : int; reason : string }

type state = {
  hier : Hierarchy.t;
  levels : int;
  (* [pebbles.(l-1).(j)] is the vertex set held in unit [j] at level [l]. *)
  pebbles : Bitset.t array array;
  white : Bitset.t;
  blue : Bitset.t;
  occupancy_peak : int array array;
}

let make_state hier g =
  let n = Cdag.n_vertices g in
  let levels = Hierarchy.n_levels hier in
  let pebbles =
    Array.init levels (fun l ->
        Array.init (Hierarchy.count hier ~level:(l + 1)) (fun _ -> Bitset.create n))
  in
  let blue = Bitset.create n in
  List.iter (Bitset.add blue) (Cdag.inputs g);
  {
    hier;
    levels;
    pebbles;
    white = Bitset.create n;
    blue;
    occupancy_peak = Array.init levels (fun l ->
        Array.make (Hierarchy.count hier ~level:(l + 1)) 0);
  }

let run hier g moves =
  if not (Dmc_cdag.Validate.is_rbw g) then
    invalid_arg "Prbw_game.run: graph violates the RBW convention";
  let st = make_state hier g in
  let levels = st.levels in
  let n = Cdag.n_vertices g in
  let top = levels in
  let n_top = Hierarchy.count hier ~level:top in
  let procs = Hierarchy.processors hier in
  let loads = ref 0 and stores = ref 0 and remote_gets = ref 0 in
  let remote_gets_per_unit = Array.make n_top 0 in
  let move_up = Array.make levels 0 and move_down = Array.make levels 0 in
  let move_down_per_unit =
    Array.init levels (fun l -> Array.make (Hierarchy.count hier ~level:(l + 1)) 0)
  in
  let computes_per_proc = Array.make procs 0 in
  let exception Fail of error in
  let fail step fmt = Format.kasprintf (fun reason -> raise (Fail { step; reason })) fmt in
  let check_vertex step v =
    if v < 0 || v >= n then fail step "vertex %d out of range" v
  in
  let check_unit step ~level j =
    if level < 1 || level > levels then fail step "level %d out of range" level;
    if j < 0 || j >= Hierarchy.count hier ~level then
      fail step "unit %d out of range at level %d" j level
  in
  let unit_set ~level j = st.pebbles.(level - 1).(j) in
  let place step ~level j v =
    let set = unit_set ~level j in
    if not (Bitset.mem set v) then begin
      if Bitset.cardinal set >= Hierarchy.capacity hier ~level then
        fail step "unit %d at level %d is full (S_%d = %d)" j level level
          (Hierarchy.capacity hier ~level);
      Bitset.add set v;
      if Bitset.cardinal set > st.occupancy_peak.(level - 1).(j) then
        st.occupancy_peak.(level - 1).(j) <- Bitset.cardinal set
    end
  in
  try
    List.iteri
      (fun step move ->
        match move with
        | Input { unit_id; v } ->
            check_vertex step v;
            check_unit step ~level:top unit_id;
            if not (Bitset.mem st.blue v) then fail step "input %d: no blue pebble" v;
            place step ~level:top unit_id v;
            Bitset.add st.white v;
            incr loads
        | Output { unit_id; v } ->
            check_vertex step v;
            check_unit step ~level:top unit_id;
            if not (Bitset.mem (unit_set ~level:top unit_id) v) then
              fail step "output %d: no level-%d pebble in unit %d" v top unit_id;
            Bitset.add st.blue v;
            incr stores
        | Remote_get { src; dst; v } ->
            check_vertex step v;
            check_unit step ~level:top src;
            check_unit step ~level:top dst;
            if src = dst then fail step "remote get %d: src = dst" v;
            if not (Bitset.mem (unit_set ~level:top src) v) then
              fail step "remote get %d: not present in source unit %d" v src;
            place step ~level:top dst v;
            incr remote_gets;
            remote_gets_per_unit.(dst) <- remote_gets_per_unit.(dst) + 1
        | Move_up { level; unit_id; v } ->
            check_vertex step v;
            check_unit step ~level unit_id;
            if level >= top then fail step "move up: level %d has no parent" level;
            let parent = Hierarchy.parent_unit hier ~level unit_id in
            if not (Bitset.mem (unit_set ~level:(level + 1) parent) v) then
              fail step "move up %d: parent unit %d at level %d lacks it" v parent
                (level + 1);
            place step ~level unit_id v;
            move_up.(level - 1) <- move_up.(level - 1) + 1
        | Move_down { level; unit_id; v } ->
            check_vertex step v;
            check_unit step ~level unit_id;
            if level <= 1 then fail step "move down: level %d has no children" level;
            let child_has =
              List.exists
                (fun c -> Bitset.mem (unit_set ~level:(level - 1) c) v)
                (Hierarchy.children_units hier ~level unit_id)
            in
            if not child_has then
              fail step "move down %d: no child of unit %d at level %d holds it" v
                unit_id level;
            place step ~level unit_id v;
            move_down.(level - 1) <- move_down.(level - 1) + 1;
            move_down_per_unit.(level - 1).(unit_id) <-
              move_down_per_unit.(level - 1).(unit_id) + 1
        | Compute { proc; v } ->
            check_vertex step v;
            if proc < 0 || proc >= procs then fail step "processor %d out of range" proc;
            if Cdag.is_input g v then fail step "compute %d: inputs cannot fire" v;
            if Bitset.mem st.white v then
              fail step "compute %d: already white (recomputation forbidden)" v;
            let regs = unit_set ~level:1 proc in
            let missing =
              Cdag.fold_pred g v
                (fun acc u -> if Bitset.mem regs u then acc else u :: acc)
                []
            in
            (match missing with
            | u :: _ ->
                fail step "compute %d: predecessor %d not in processor %d registers" v
                  u proc
            | [] ->
                place step ~level:1 proc v;
                Bitset.add st.white v;
                computes_per_proc.(proc) <- computes_per_proc.(proc) + 1)
        | Delete { level; unit_id; v } ->
            check_vertex step v;
            check_unit step ~level unit_id;
            if not (Bitset.mem (unit_set ~level unit_id) v) then
              fail step "delete %d: unit %d at level %d does not hold it" v unit_id
                level;
            Bitset.remove (unit_set ~level unit_id) v)
      moves;
    let finish = List.length moves in
    Cdag.iter_vertices g (fun v ->
        if not (Bitset.mem st.white v) then
          fail finish "vertex %d has no white pebble at the end" v);
    List.iter
      (fun v ->
        if not (Bitset.mem st.blue v) then
          fail finish "output %d has no blue pebble at the end" v)
      (Cdag.outputs g);
    Ok
      {
        loads = !loads;
        stores = !stores;
        remote_gets = !remote_gets;
        remote_gets_per_unit;
        move_up;
        move_down;
        move_down_per_unit;
        computes_per_proc;
        max_occupancy = st.occupancy_peak;
      }
  with Fail e -> Error e

let validate hier g moves =
  match run hier g moves with Ok _ -> None | Error e -> Some e

let embed_sequential hier ~proc moves =
  let levels = Hierarchy.n_levels hier in
  if proc < 0 || proc >= Hierarchy.processors hier then
    invalid_arg "Prbw_game.embed_sequential: bad processor";
  let unit_at level = Hierarchy.unit_of_processor hier ~level proc in
  let down_chain v =
    (* Bring a value from the top level into [proc]'s registers. *)
    List.init (levels - 1) (fun i ->
        let level = levels - 1 - i in
        Move_up { level; unit_id = unit_at level; v })
  in
  let up_chain v =
    (* Push a register value out to the top level. *)
    List.init (levels - 1) (fun i ->
        let level = 2 + i in
        Move_down { level; unit_id = unit_at level; v })
  in
  List.concat_map
    (fun (m : Rbw_game.move) ->
      match m with
      | Rb_game.Load v -> Input { unit_id = unit_at levels; v } :: down_chain v
      | Rb_game.Store v -> up_chain v @ [ Output { unit_id = unit_at levels; v } ]
      | Rb_game.Compute v -> [ Compute { proc; v } ]
      | Rb_game.Delete v -> [ Delete { level = 1; unit_id = proc; v } ])
    moves
