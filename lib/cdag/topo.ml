module Heap = Dmc_util.Heap

let order g =
  let n = Cdag.n_vertices g in
  let indeg = Array.init n (Cdag.in_degree g) in
  let ready = Heap.create () in
  Array.iteri (fun v d -> if d = 0 then Heap.push ready ~prio:v ~value:v) indeg;
  let out = Array.make n 0 in
  let k = ref 0 in
  let rec drain () =
    match Heap.pop_min ready with
    | None -> ()
    | Some (_, u) ->
        out.(!k) <- u;
        incr k;
        Cdag.iter_succ g u (fun v ->
            indeg.(v) <- indeg.(v) - 1;
            if indeg.(v) = 0 then Heap.push ready ~prio:v ~value:v);
        drain ()
  in
  drain ();
  assert (!k = n);
  out

let is_order g perm =
  let n = Cdag.n_vertices g in
  if Array.length perm <> n then false
  else begin
    let pos = Array.make n (-1) in
    let ok = ref true in
    Array.iteri
      (fun i v ->
        if v < 0 || v >= n || pos.(v) >= 0 then ok := false else pos.(v) <- i)
      perm;
    if !ok then
      Cdag.iter_edges g (fun u v -> if pos.(u) >= pos.(v) then ok := false);
    !ok
  end

let depth g =
  let d = Array.make (Cdag.n_vertices g) 0 in
  Array.iter
    (fun v ->
      Cdag.iter_pred g v (fun u -> if d.(u) + 1 > d.(v) then d.(v) <- d.(u) + 1))
    (order g);
  d

let height g =
  let n = Cdag.n_vertices g in
  let h = Array.make n 0 in
  let ord = order g in
  for i = n - 1 downto 0 do
    let v = ord.(i) in
    Cdag.iter_succ g v (fun w -> if h.(w) + 1 > h.(v) then h.(v) <- h.(w) + 1)
  done;
  h

let layers g =
  let d = depth g in
  let max_d = Array.fold_left max 0 d in
  let out = Array.make (max_d + 1) [] in
  for v = Cdag.n_vertices g - 1 downto 0 do
    out.(d.(v)) <- v :: out.(d.(v))
  done;
  out
