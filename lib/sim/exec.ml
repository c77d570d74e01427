module Bitset = Dmc_util.Bitset
module Cdag = Dmc_cdag.Cdag

type config = {
  capacities : int array;
  nodes : int;
  owner : Cdag.vertex -> int;
}

let sequential ~capacities = { capacities; nodes = 1; owner = (fun _ -> 0) }

type result = {
  vertical : int array array;
  horizontal_in : int array;
  horizontal_total : int;
  computed : int;
}

let check_order g order =
  let n = Cdag.n_vertices g in
  let pos = Array.make n (-1) in
  if
    Array.length order
    <> Cdag.fold_vertices g (fun acc v -> if Cdag.is_input g v then acc else acc + 1) 0
  then invalid_arg "Exec.run: order must cover exactly the non-input vertices";
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n || Cdag.is_input g v || pos.(v) >= 0 then
        invalid_arg "Exec.run: bad order";
      pos.(v) <- i)
    order;
  Cdag.iter_edges g (fun u v ->
      if pos.(u) >= 0 && pos.(v) >= 0 && pos.(u) >= pos.(v) then
        invalid_arg "Exec.run: order is not topological")

let c_computes = Dmc_obs.Counter.make "sim.exec.computes"
let c_remote = Dmc_obs.Counter.make "sim.exec.remote_fetches"

let run g ~order config =
  if config.nodes <= 0 then invalid_arg "Exec.run: nodes must be positive";
  check_order g order;
  Dmc_obs.Span.with_
    ~attrs:
      [
        ("nodes", string_of_int config.nodes);
        ("order_len", string_of_int (Array.length order));
      ]
    "sim.exec.run"
  @@ fun () ->
  let n = Cdag.n_vertices g in
  let owner v =
    if config.nodes = 1 then 0
    else begin
      let p = config.owner v in
      if p < 0 || p >= config.nodes then invalid_arg "Exec.run: owner out of range";
      p
    end
  in
  let hier =
    Array.init config.nodes (fun _ -> Hier_sim.create ~capacities:config.capacities ())
  in
  (* Remote values already replicated into each node's hierarchy. *)
  let replicated = Array.init config.nodes (fun _ -> Bitset.create n) in
  let horizontal_in = Array.make config.nodes 0 in
  let computed = ref 0 in
  Array.iter
    (fun v ->
      let p = owner v in
      Cdag.iter_pred g v (fun u ->
          let home = owner u in
          if home <> p && not (Bitset.mem replicated.(p) u) then begin
            horizontal_in.(p) <- horizontal_in.(p) + 1;
            Dmc_obs.Counter.incr c_remote;
            Bitset.add replicated.(p) u
          end;
          Hier_sim.read hier.(p) u);
      Hier_sim.write hier.(p) v;
      Dmc_obs.Counter.incr c_computes;
      incr computed)
    order;
  Array.iter Hier_sim.flush hier;
  {
    vertical = Array.map Hier_sim.traffic hier;
    horizontal_in;
    horizontal_total = Array.fold_left ( + ) 0 horizontal_in;
    computed = !computed;
  }
