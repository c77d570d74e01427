module Bitset = Dmc_util.Bitset

type part = {
  graph : Cdag.t;
  to_parent : Cdag.vertex array;
  of_parent : Cdag.vertex -> Cdag.vertex option;
}

let induced g set =
  let n = Cdag.n_vertices g in
  let to_parent = Array.of_list (Bitset.elements set) in
  let map = Array.make n (-1) in
  Array.iteri (fun i v -> map.(v) <- i) to_parent;
  let b = Cdag.Builder.create ~hint:(Array.length to_parent) () in
  Array.iter
    (fun v -> ignore (Cdag.Builder.add_vertex ~label:(Cdag.label g v) b))
    to_parent;
  Array.iteri
    (fun i v ->
      Cdag.iter_succ g v (fun w -> if map.(w) >= 0 then Cdag.Builder.add_edge b i map.(w)))
    to_parent;
  let tag pred =
    Array.to_list to_parent
    |> List.filteri (fun _ v -> pred v)
    |> List.map (fun v -> map.(v))
  in
  let inputs = tag (Cdag.is_input g) and outputs = tag (Cdag.is_output g) in
  let graph = Cdag.Builder.freeze ~inputs ~outputs b in
  let of_parent v =
    if v < 0 || v >= n || map.(v) < 0 then None else Some map.(v)
  in
  { graph; to_parent; of_parent }

let partition g color =
  let n = Cdag.n_vertices g in
  if Array.length color <> n then invalid_arg "Subgraph.partition: bad color array";
  let k = 1 + Array.fold_left max (-1) color in
  if k <= 0 then [||]
  else begin
    let sets = Array.init k (fun _ -> Bitset.create n) in
    Array.iteri
      (fun v c ->
        if c < 0 then invalid_arg "Subgraph.partition: negative color";
        Bitset.add sets.(c) v)
      color;
    Array.map (induced g) sets
  end

let boundary_in g set =
  let n = Cdag.n_vertices g in
  let out = Bitset.create n in
  Bitset.iter
    (fun v -> Cdag.iter_pred g v (fun u -> if not (Bitset.mem set u) then Bitset.add out u))
    set;
  out

let boundary_out g set =
  let n = Cdag.n_vertices g in
  let out = Bitset.create n in
  Bitset.iter
    (fun v ->
      if Cdag.is_output g v then Bitset.add out v
      else
        Cdag.iter_succ g v (fun w ->
            if not (Bitset.mem set w) then Bitset.add out v))
    set;
  out

let drop_inputs g =
  let n = Cdag.n_vertices g in
  let keep = Bitset.create n in
  let di = ref 0 in
  Cdag.iter_vertices g (fun v ->
      if Cdag.is_input g v then incr di else Bitset.add keep v);
  let part = induced g keep in
  let graph = Cdag.retag part.graph ~inputs:[] ~outputs:(Cdag.outputs part.graph) in
  ({ part with graph }, !di)

let drop_io g =
  let n = Cdag.n_vertices g in
  let keep = Bitset.create n in
  let di = ref 0 and d_o = ref 0 in
  Cdag.iter_vertices g (fun v ->
      if Cdag.is_input g v then incr di
      else if Cdag.is_output g v then incr d_o
      else Bitset.add keep v);
  let part = induced g keep in
  let graph = Cdag.retag part.graph ~inputs:[] ~outputs:[] in
  ({ part with graph }, !di, !d_o)
