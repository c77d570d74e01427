module Cdag = Dmc_cdag.Cdag
module B = Cdag.Builder

let chain n =
  if n <= 0 then invalid_arg "Shapes.chain";
  let b = B.create ~hint:n () in
  let vs = Array.init n (fun i -> B.add_vertex ~label:(Printf.sprintf "c%d" i) b) in
  for i = 0 to n - 2 do
    B.add_edge b vs.(i) vs.(i + 1)
  done;
  B.freeze ~inputs:[ vs.(0) ] ~outputs:[ vs.(n - 1) ] b

let reduction_tree leaves =
  if leaves <= 0 then invalid_arg "Shapes.reduction_tree";
  let b = B.create ~hint:(2 * leaves) () in
  let ins =
    Array.init leaves (fun i -> B.add_vertex ~label:(Printf.sprintf "in%d" i) b)
  in
  let rec reduce vs =
    match Array.length vs with
    | 1 -> vs.(0)
    | n ->
        let half = (n + 1) / 2 in
        reduce
          (Array.init half (fun i ->
               if (2 * i) + 1 < n then begin
                 let v = B.add_vertex b in
                 B.add_edge b vs.(2 * i) v;
                 B.add_edge b vs.((2 * i) + 1) v;
                 v
               end
               else vs.(2 * i)))
  in
  let root = reduce ins in
  B.freeze ~inputs:(Array.to_list ins) ~outputs:[ root ] b

let diamond ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Shapes.diamond";
  let b = B.create ~hint:(rows * cols) () in
  let id i j = (i * cols) + j in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      ignore (B.add_vertex ~label:(Printf.sprintf "d%d_%d" i j) b)
    done
  done;
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if i > 0 then B.add_edge b (id (i - 1) j) (id i j);
      if j > 0 then B.add_edge b (id i (j - 1)) (id i j)
    done
  done;
  B.freeze ~inputs:[ id 0 0 ] ~outputs:[ id (rows - 1) (cols - 1) ] b

let binomial k =
  if k < 0 || k > 20 then invalid_arg "Shapes.binomial";
  let n = 1 lsl k in
  let b = B.create ~hint:n () in
  for i = 0 to n - 1 do
    ignore (B.add_vertex ~label:(Printf.sprintf "b%d" i) b)
  done;
  (* Vertex i of copy 2 is i + 2^{r} at recursion level r; unrolled,
     vertex j has an edge to j + 2^r whenever bit r of j is 0. *)
  for j = 0 to n - 1 do
    for r = 0 to k - 1 do
      if j land (1 lsl r) = 0 then B.add_edge b j (j + (1 lsl r))
    done
  done;
  B.freeze b

let pyramid h =
  if h < 0 then invalid_arg "Shapes.pyramid";
  let b = B.create ~hint:((h + 1) * (h + 2) / 2) () in
  let rows =
    Array.init (h + 1) (fun r ->
        Array.init (h + 1 - r) (fun i ->
            B.add_vertex ~label:(Printf.sprintf "p%d_%d" r i) b))
  in
  for r = 0 to h - 1 do
    Array.iteri
      (fun i v ->
        B.add_edge b rows.(r).(i) v;
        B.add_edge b rows.(r).(i + 1) v)
      rows.(r + 1)
  done;
  B.freeze
    ~inputs:(Array.to_list rows.(0))
    ~outputs:[ rows.(h).(0) ]
    b

let independent n =
  if n <= 0 then invalid_arg "Shapes.independent";
  let b = B.create ~hint:n () in
  let vs = List.init n (fun i -> B.add_vertex ~label:(Printf.sprintf "i%d" i) b) in
  B.freeze ~inputs:[] ~outputs:vs b

let two_level_fanin ~fanin ~mids =
  if fanin <= 0 || mids <= 0 then invalid_arg "Shapes.two_level_fanin";
  let b = B.create ~hint:(fanin + mids + 1) () in
  let ins = Array.init fanin (fun i -> B.add_vertex ~label:(Printf.sprintf "x%d" i) b) in
  let mid =
    Array.init mids (fun i ->
        let v = B.add_vertex ~label:(Printf.sprintf "y%d" i) b in
        Array.iter (fun u -> B.add_edge b u v) ins;
        v)
  in
  let out = B.add_vertex ~label:"z" b in
  Array.iter (fun v -> B.add_edge b v out) mid;
  B.freeze ~inputs:(Array.to_list ins) ~outputs:[ out ] b
