module Cdag = Dmc_cdag.Cdag

type spec = {
  n : int;
  edges : (int * int) list;
}

let spec_to_cdag spec =
  let b = Cdag.Builder.create ~hint:spec.n () in
  for _ = 1 to spec.n do
    ignore (Cdag.Builder.add_vertex b)
  done;
  List.iter (fun (u, v) -> Cdag.Builder.add_edge b u v) spec.edges;
  Cdag.Builder.freeze b

let max_indegree spec =
  let indeg = Array.make spec.n 0 in
  List.iter (fun (_, v) -> indeg.(v) <- indeg.(v) + 1) spec.edges;
  Array.fold_left max 0 indeg

let print spec =
  Printf.sprintf "{n=%d; edges=[%s]}" spec.n
    (String.concat "; "
       (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) spec.edges))

let gen ~max_n ~edge_prob =
  let open QCheck.Gen in
  int_range 2 max_n >>= fun n ->
  let pairs = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      pairs := (u, v) :: !pairs
    done
  done;
  let rec pick acc = function
    | [] -> return { n; edges = List.rev acc }
    | p :: rest ->
        float_bound_inclusive 1.0 >>= fun x ->
        pick (if x < edge_prob then p :: acc else acc) rest
  in
  pick [] (List.rev !pairs)

let shrink spec yield =
  (* drop one edge at a time *)
  List.iteri
    (fun i _ ->
      yield { spec with edges = List.filteri (fun j _ -> j <> i) spec.edges })
    spec.edges;
  (* trim the last vertex (and its edges) *)
  if spec.n > 2 then
    yield
      {
        n = spec.n - 1;
        edges = List.filter (fun (u, v) -> u < spec.n - 1 && v < spec.n - 1) spec.edges;
      }

let arbitrary ?(max_n = 10) ?(edge_prob = 0.3) () =
  QCheck.make ~print ~shrink (gen ~max_n ~edge_prob)

let rebuild n ~edges ~inputs ~outputs =
  let b = Cdag.Builder.create ~hint:n () in
  for _ = 1 to n do ignore (Cdag.Builder.add_vertex b) done;
  edges (Cdag.Builder.add_edge b);
  Cdag.Builder.freeze ~inputs ~outputs b

let transpose g =
  rebuild (Cdag.n_vertices g) ~edges:(fun add -> Cdag.iter_edges g (fun u v -> add v u))
    ~inputs:(Cdag.outputs g) ~outputs:(Cdag.inputs g)

let disjoint_union a c =
  let na = Cdag.n_vertices a and shift = List.map (( + ) (Cdag.n_vertices a)) in
  rebuild (na + Cdag.n_vertices c)
    ~edges:(fun add -> Cdag.iter_edges a add; Cdag.iter_edges c (fun u v -> add (u + na) (v + na)))
    ~inputs:(Cdag.inputs a @ shift (Cdag.inputs c)) ~outputs:(Cdag.outputs a @ shift (Cdag.outputs c))
