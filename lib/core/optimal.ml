module Budget = Dmc_util.Budget
module Cdag = Dmc_cdag.Cdag

exception Too_large of string

(* Population count of a non-negative int below 2^32 (SWAR). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let pred_masks g =
  Array.init (Cdag.n_vertices g) (fun v ->
      Cdag.fold_pred g v (fun m u -> m lor (1 lsl u)) 0)

let mask_of_list vs = List.fold_left (fun m v -> m lor (1 lsl v)) 0 vs

(* Open-addressing [int -> int] map with linear probing over two flat
   arrays.  Keys are game states (non-negative); [-1] marks a free
   slot.  The load factor stays at most 1/2. *)
module Table = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

  let create () = { keys = Array.make 4096 (-1); vals = Array.make 4096 0; size = 0 }

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)

  (* The slot holding [k], or the free slot where it belongs. *)
  let slot keys k =
    let mask = Array.length keys - 1 in
    let rec probe i =
      let k' = Array.unsafe_get keys i in
      if k' = k || k' = -1 then i else probe ((i + 1) land mask)
    in
    probe (hash k land mask)

  let grow t =
    let keys = Array.make (2 * Array.length t.keys) (-1) in
    let vals = Array.make (2 * Array.length t.keys) 0 in
    Array.iteri
      (fun i k ->
        if k <> -1 then begin
          let j = slot keys k in
          keys.(j) <- k;
          vals.(j) <- t.vals.(i)
        end)
      t.keys;
    t.keys <- keys;
    t.vals <- vals

  (* Store [k -> v] in the free slot [i] found by [slot]. *)
  let add_at t i k v =
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length t.keys then grow t
end

(* A double-ended queue of ints in a growable ring buffer. *)
module Deque = struct
  type t = { mutable buf : int array; mutable head : int; mutable len : int }

  let create () = { buf = Array.make 4096 0; head = 0; len = 0 }

  let grow d =
    let cap = Array.length d.buf in
    let buf = Array.make (2 * cap) 0 in
    for i = 0 to d.len - 1 do
      buf.(i) <- d.buf.((d.head + i) land (cap - 1))
    done;
    d.buf <- buf;
    d.head <- 0

  let push_front d x =
    if d.len = Array.length d.buf then grow d;
    d.head <- (d.head - 1) land (Array.length d.buf - 1);
    d.buf.(d.head) <- x;
    d.len <- d.len + 1

  let push_back d x =
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) land (Array.length d.buf - 1)) <- x;
    d.len <- d.len + 1

  let pop_front d =
    let x = d.buf.(d.head) in
    d.head <- (d.head + 1) land (Array.length d.buf - 1);
    d.len <- d.len - 1;
    x
end

let c_states = Dmc_obs.Counter.make "optimal.states_expanded"

(* Optimal game cost per completed search — one observation per solved
   instance, so the distribution tracks instance difficulty rather than
   inner-loop volume. *)
let h_game_cost = Dmc_obs.Histogram.make "optimal.game_cost"

(* A pebble game over integer-encoded states.  [successors st push]
   calls [push cost st'] once per move, with [cost] 0 or 1.  [h] is a
   lower bound on the cost still to pay that no move lowers by more
   than its own cost (consistent), and is 0 at every goal. *)
type game = {
  start : int;
  is_goal : int -> bool;
  h : int -> int;
  successors : int -> (int -> int -> unit) -> unit;
}

(* A* as a 0-1 BFS.  Costs are reduced to [c + h st' - h st], which
   consistency keeps in {0, 1}: 0-moves go to the front of the deque,
   1-moves to the back, so states pop in order of [g + h].  The table
   maps each stored state to its reduced distance shifted left once,
   with the low bit set when the state has been expanded; the first
   pop of a state is at its final distance, later pops of it are
   stale.  [budget] is ticked once per popped state, so a deadline
   interrupts the search within one expansion.  At most [max_states]
   distinct states are ever stored. *)
let search ?budget ~max_states game =
  let table = Table.create () in
  let deque = Deque.create () in
  let h0 = game.h game.start in
  let store i st f =
    if table.size >= max_states then
      raise (Too_large "Optimal: state budget exhausted");
    Table.add_at table i st (f lsl 1)
  in
  store (Table.slot table.keys game.start) game.start 0;
  Deque.push_back deque game.start;
  let answer = ref (-1) in
  while !answer < 0 && deque.len > 0 do
    (match budget with None -> () | Some b -> Budget.tick b);
    Dmc_obs.Counter.incr c_states;
    let st = Deque.pop_front deque in
    let i = Table.slot table.keys st in
    let v = table.vals.(i) in
    if v land 1 = 0 then begin
      table.vals.(i) <- v lor 1;
      let f = v lsr 1 in
      let h = game.h st in
      if game.is_goal st then answer := f + h0 - h
      else
        game.successors st (fun cost st' ->
            let d = cost + game.h st' - h in
            assert (d = 0 || d = 1);
            let f' = f + d in
            let j = Table.slot table.keys st' in
            let known = table.keys.(j) <> -1 in
            if (not known) || f' < table.vals.(j) lsr 1 then begin
              if known then table.vals.(j) <- f' lsl 1 else store j st' f';
              if d = 0 then Deque.push_front deque st'
              else Deque.push_back deque st'
            end)
    end
  done;
  if !answer < 0 then
    raise (Too_large "Optimal: no complete game found (exhausted states)");
  Dmc_obs.Histogram.observe h_game_cost !answer;
  !answer

(* The moves of both games over states packed as white | red | blue,
   n bits each.  Loads and stores cost 1, computes and deletes 0.
   Deletions happen only when a placement finds the fast memory full,
   branching over the victim; a compute's victim must not be one of
   its predecessors — they have to stay red through the firing.  With
   [recompute] (Hong–Kung) the white set stays empty and a vertex may
   fire again; without it (RBW) every placement marks the vertex
   white and a white vertex never fires again. *)
let moves ~n ~s ~preds ~input_mask ~recompute =
  let all = (1 lsl n) - 1 in
  let encode white red blue = (white lsl (2 * n)) lor (red lsl n) lor blue in
  fun st push ->
    let white = st lsr (2 * n) and red = (st lsr n) land all and blue = st land all in
    let full = popcount red >= s in
    let place cost protect v =
      let bit = 1 lsl v in
      let white = if recompute then white else white lor bit in
      if not full then push cost (encode white (red lor bit) blue)
      else begin
        let victims = ref (red land lnot protect) in
        while !victims <> 0 do
          let r = !victims land (- !victims) in
          victims := !victims lxor r;
          push cost (encode white ((red lxor r) lor bit) blue)
        done
      end
    in
    for v = 0 to n - 1 do
      let bit = 1 lsl v in
      if red land bit = 0 then begin
        (* R1: load *)
        if blue land bit <> 0 then place 1 0 v;
        (* R3: compute *)
        if
          white land bit = 0
          && input_mask land bit = 0
          && preds.(v) land lnot red = 0
        then place 0 preds.(v) v
      end
      else if blue land bit = 0 then
        (* R2: store *)
        push 1 (encode white red (blue lor bit))
    done

let rbw_io ?budget ?(max_states = 2_000_000) g ~s =
  if s <= 0 then invalid_arg "Optimal.rbw_io: s must be positive";
  let n = Cdag.n_vertices g in
  if n > 20 then raise (Too_large "Optimal.rbw_io: more than 20 vertices");
  if not (Dmc_cdag.Validate.is_rbw g) then
    invalid_arg "Optimal.rbw_io: graph violates the RBW convention";
  let input_mask = mask_of_list (Cdag.inputs g) in
  let stored = mask_of_list (Cdag.outputs g) land lnot input_mask in
  let all = (1 lsl n) - 1 in
  (* Every input still not white needs its own load, every non-input
     output still not blue its own store. *)
  let h st =
    popcount (input_mask land lnot (st lsr (2 * n)))
    + popcount (stored land lnot st)
  in
  let game =
    {
      start = input_mask;
      is_goal = (fun st -> st lsr (2 * n) = all && stored land lnot st = 0);
      h;
      successors =
        moves ~n ~s ~preds:(pred_masks g) ~input_mask ~recompute:false;
    }
  in
  Dmc_obs.Span.with_
    ~attrs:[ ("s", string_of_int s); ("n", string_of_int n) ]
    "optimal.rbw_io"
    (fun () -> search ?budget ~max_states game)

let rb_io ?budget ?(max_states = 2_000_000) g ~s =
  if s <= 0 then invalid_arg "Optimal.rb_io: s must be positive";
  let n = Cdag.n_vertices g in
  if n > 31 then raise (Too_large "Optimal.rb_io: more than 31 vertices");
  if not (Dmc_cdag.Validate.is_hong_kung g) then
    invalid_arg "Optimal.rb_io: graph violates the Hong-Kung convention";
  let input_mask = mask_of_list (Cdag.inputs g) in
  let output_mask = mask_of_list (Cdag.outputs g) in
  (* Every output still not blue needs its own store. *)
  let h st = popcount (output_mask land lnot st) in
  let game =
    {
      start = input_mask;
      is_goal = (fun st -> output_mask land lnot st = 0);
      h;
      successors = moves ~n ~s ~preds:(pred_masks g) ~input_mask ~recompute:true;
    }
  in
  Dmc_obs.Span.with_
    ~attrs:[ ("s", string_of_int s); ("n", string_of_int n) ]
    "optimal.rb_io"
    (fun () -> search ?budget ~max_states game)

let min_balanced_horizontal ?budget ?(slack = 0) g ~procs =
  if procs < 1 then invalid_arg "Optimal.min_balanced_horizontal";
  let compute =
    Cdag.fold_vertices g
      (fun acc v -> if Cdag.is_input g v then acc else v :: acc)
      []
    |> List.rev |> Array.of_list
  in
  let n' = Array.length compute in
  if n' > 14 then
    raise (Too_large "Optimal.min_balanced_horizontal: more than 14 compute vertices");
  let cap = ((n' + procs - 1) / procs) + slack in
  let assign = Array.make n' 0 in
  let load = Array.make procs 0 in
  let best_cost = ref max_int in
  let best_assign = ref (Array.make n' 0) in
  (* compute vertex -> its index in [compute], or -1 for an input *)
  let index = Array.make (Cdag.n_vertices g) (-1) in
  Array.iteri (fun i v -> index.(v) <- i) compute;
  (* [seen.(q) = i] once processor [q] is counted as a consumer of
     compute vertex [i] *)
  let seen = Array.make procs (-1) in
  (* cost of a complete assignment: every computed value is fetched
     once into each foreign node that consumes it; inputs are free
     (they can be Input-ed anywhere straight from blue) *)
  let cost () =
    Array.fill seen 0 procs (-1);
    let total = ref 0 in
    Array.iteri
      (fun i v ->
        let home = assign.(i) in
        Cdag.iter_succ g v (fun w ->
            let j = index.(w) in
            if j >= 0 then begin
              let q = assign.(j) in
              if q <> home && seen.(q) <> i then begin
                seen.(q) <- i;
                incr total
              end
            end))
      compute;
    !total
  in
  let rec go i =
    (match budget with None -> () | Some b -> Budget.tick b);
    if i = n' then begin
      let c = cost () in
      if c < !best_cost then begin
        best_cost := c;
        best_assign := Array.copy assign
      end
    end
    else
      (* canonical symmetry breaking: vertex i may only open processor
         max-used-so-far + 1 *)
      let max_used = ref (-1) in
      for j = 0 to i - 1 do
        if assign.(j) > !max_used then max_used := assign.(j)
      done;
      for p = 0 to min (procs - 1) (!max_used + 1) do
        if load.(p) < cap then begin
          assign.(i) <- p;
          load.(p) <- load.(p) + 1;
          go (i + 1);
          load.(p) <- load.(p) - 1
        end
      done
  in
  if n' = 0 then (0, Array.make (Cdag.n_vertices g) 0)
  else begin
    go 0;
    (* full per-vertex assignment: inputs placed with a consumer *)
    let proc_of v = if index.(v) < 0 then -1 else !best_assign.(index.(v)) in
    let out =
      Array.init (Cdag.n_vertices g) (fun v ->
          if index.(v) >= 0 then proc_of v
          else
            (* an input: home it at its first consumer *)
            Cdag.fold_succ g v
              (fun acc w -> if acc < 0 then proc_of w else acc)
              (-1)
            |> max 0)
    in
    (!best_cost, out)
  end
