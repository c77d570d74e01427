type vertex = int

type t = {
  n_vertices : int;
  iter_succ : vertex -> (vertex -> unit) -> unit;
  iter_pred : vertex -> (vertex -> unit) -> unit;
  is_input : vertex -> bool;
  is_output : vertex -> bool;
  label : vertex -> string;
}

let of_cdag g =
  {
    n_vertices = Cdag.n_vertices g;
    iter_succ = (fun v f -> Cdag.iter_succ g v f);
    iter_pred = (fun v f -> Cdag.iter_pred g v f);
    is_input = Cdag.is_input g;
    is_output = Cdag.is_output g;
    label = Cdag.label g;
  }

let out_degree t v =
  let d = ref 0 in
  t.iter_succ v (fun _ -> incr d);
  !d

let in_degree t v =
  let d = ref 0 in
  t.iter_pred v (fun _ -> incr d);
  !d

let n_edges t =
  let m = ref 0 in
  for v = 0 to t.n_vertices - 1 do
    t.iter_succ v (fun _ -> incr m)
  done;
  !m

let materialize t =
  let n = t.n_vertices in
  let b = Cdag.Builder.create ~hint:n () in
  for v = 0 to n - 1 do
    let lbl = t.label v in
    ignore (Cdag.Builder.add_vertex ~label:lbl b)
  done;
  for v = 0 to n - 1 do
    t.iter_succ v (fun w -> Cdag.Builder.add_edge b v w)
  done;
  let tagged pred =
    let out = ref [] in
    for v = n - 1 downto 0 do
      if pred v then out := v :: !out
    done;
    !out
  in
  Cdag.Builder.freeze ~inputs:(tagged t.is_input) ~outputs:(tagged t.is_output)
    b

(* Build an induced part from an ascending id array.  Membership is
   resolved through a hash table keyed by parent id, so the cost is
   proportional to the piece and its incident edges, never to
   [t.n_vertices]. *)
let induced t ids =
  let k = Array.length ids in
  let map = Hashtbl.create (2 * k) in
  Array.iteri (fun i v -> Hashtbl.replace map v i) ids;
  let b = Cdag.Builder.create ~hint:k () in
  Array.iter (fun v -> ignore (Cdag.Builder.add_vertex ~label:(t.label v) b)) ids;
  Array.iteri
    (fun i v ->
      t.iter_succ v (fun w ->
          match Hashtbl.find_opt map w with
          | Some j -> Cdag.Builder.add_edge b i j
          | None -> ()))
    ids;
  let tag pred =
    let out = ref [] in
    for i = k - 1 downto 0 do
      if pred ids.(i) then out := i :: !out
    done;
    !out
  in
  let graph =
    Cdag.Builder.freeze ~inputs:(tag t.is_input) ~outputs:(tag t.is_output) b
  in
  let of_parent v =
    match Hashtbl.find_opt map v with
    | Some i -> Some i
    | None -> None
  in
  { Subgraph.graph; to_parent = ids; of_parent }

let window t ~lo ~hi =
  if lo < 0 || hi > t.n_vertices || lo > hi then
    invalid_arg "Implicit.window: bad range";
  induced t (Array.init (hi - lo) (fun i -> lo + i))

let check_monotone t =
  let ok = ref true in
  (try
     for v = 0 to t.n_vertices - 1 do
       t.iter_succ v (fun w -> if w <= v then raise Exit)
     done
   with Exit -> ok := false);
  !ok
