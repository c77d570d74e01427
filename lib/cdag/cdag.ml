module Bitset = Dmc_util.Bitset
module Intvec = Dmc_util.Intvec

type vertex = int

type t = {
  n : int;
  succ_off : int array;   (* length n+1 *)
  succ : int array;       (* concatenated ascending successor rows *)
  pred_off : int array;
  pred : int array;
  input_set : Bitset.t;
  output_set : Bitset.t;
  labels : string array;  (* "" means unlabeled *)
}

let n_vertices g = g.n
let n_edges g = Array.length g.succ

let out_degree g v = g.succ_off.(v + 1) - g.succ_off.(v)
let in_degree g v = g.pred_off.(v + 1) - g.pred_off.(v)

let iter_row off arr v f =
  for k = off.(v) to off.(v + 1) - 1 do
    f (Array.unsafe_get arr k)
  done

let iter_succ g v f = iter_row g.succ_off g.succ v f
let iter_pred g v f = iter_row g.pred_off g.pred v f

let fold_row off arr v f init =
  let acc = ref init in
  for k = off.(v) to off.(v + 1) - 1 do
    acc := f !acc (Array.unsafe_get arr k)
  done;
  !acc

let fold_succ g v f init = fold_row g.succ_off g.succ v f init
let fold_pred g v f init = fold_row g.pred_off g.pred v f init

let pred_list g v = List.rev (fold_pred g v (fun acc w -> w :: acc) [])

let iter_edges g f =
  for u = 0 to g.n - 1 do
    iter_succ g u (fun v -> f u v)
  done

let has_edge g u v =
  let lo = ref g.succ_off.(u) and hi = ref (g.succ_off.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.succ.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let label g v =
  let s = g.labels.(v) in
  if s = "" then "v" ^ string_of_int v else s

let is_input g v = Bitset.mem g.input_set v
let is_output g v = Bitset.mem g.output_set v

let inputs g = Bitset.elements g.input_set
let outputs g = Bitset.elements g.output_set

let n_inputs g = Bitset.cardinal g.input_set
let n_outputs g = Bitset.cardinal g.output_set
let n_compute g = g.n - n_inputs g

let iter_vertices g f =
  for v = 0 to g.n - 1 do
    f v
  done

let fold_vertices g f init =
  let acc = ref init in
  iter_vertices g (fun v -> acc := f !acc v);
  !acc

let sources g =
  List.rev (fold_vertices g (fun acc v -> if in_degree g v = 0 then v :: acc else acc) [])

let sinks g =
  List.rev (fold_vertices g (fun acc v -> if out_degree g v = 0 then v :: acc else acc) [])

let retag g ~inputs ~outputs =
  let input_set = Bitset.create g.n and output_set = Bitset.create g.n in
  let tag set v =
    if v < 0 || v >= g.n then invalid_arg "Cdag.retag: vertex out of range";
    Bitset.add set v
  in
  List.iter (tag input_set) inputs;
  List.iter (tag output_set) outputs;
  { g with input_set; output_set }

let pp_stats ppf g =
  Format.fprintf ppf "cdag: %d vertices, %d edges, %d inputs, %d outputs"
    (n_vertices g) (n_edges g) (n_inputs g) (n_outputs g)

(* Kahn's algorithm; raises if a cycle survives. *)
let check_acyclic n succ_off succ pred_off =
  let indeg = Array.init n (fun v -> pred_off.(v + 1) - pred_off.(v)) in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr seen;
    for k = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = succ.(k) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then Queue.add v queue
    done
  done;
  if !seen <> n then invalid_arg "Cdag: edge relation has a cycle"

module Builder = struct
  (* [hint] is advisory: every store — the parallel edge lists and the
     label table — grows by doubling when the hint undershoots, so a
     build with a wrong (or default) hint stays amortized O(1) per
     vertex/edge instead of degrading to repeated full copies. *)
  type t = {
    mutable nv : int;
    srcs : Intvec.t;  (* parallel edge lists *)
    dsts : Intvec.t;
    mutable labels : string array;  (* first [nv] entries valid *)
  }

  let create ?(hint = 16) () =
    let hint = max 1 hint in
    {
      nv = 0;
      srcs = Intvec.create ~initial_capacity:(4 * hint) ();
      dsts = Intvec.create ~initial_capacity:(4 * hint) ();
      labels = Array.make hint "";
    }

  let add_vertex ?(label = "") b =
    let v = b.nv in
    if v = Array.length b.labels then begin
      let bigger = Array.make (2 * v) "" in
      Array.blit b.labels 0 bigger 0 v;
      b.labels <- bigger
    end;
    b.labels.(v) <- label;
    b.nv <- v + 1;
    v

  let add_edge b u v =
    if u < 0 || u >= b.nv || v < 0 || v >= b.nv then
      invalid_arg "Cdag.Builder.add_edge: vertex out of range";
    if u = v then invalid_arg "Cdag.Builder.add_edge: self-loop";
    Intvec.push b.srcs u;
    Intvec.push b.dsts v

  let n_vertices b = b.nv

  (* Counting sort of the edge list into CSR rows keyed by [key];
     within a row, entries keep relative order of a pre-pass that sorted
     by the other endpoint, giving ascending rows after two passes. *)
  let to_csr n keys values =
    let m = Array.length keys in
    let off = Array.make (n + 1) 0 in
    for k = 0 to m - 1 do
      off.(keys.(k) + 1) <- off.(keys.(k) + 1) + 1
    done;
    for v = 1 to n do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    let cursor = Array.copy off in
    let out = Array.make m 0 in
    for k = 0 to m - 1 do
      let row = keys.(k) in
      out.(cursor.(row)) <- values.(k);
      cursor.(row) <- cursor.(row) + 1
    done;
    (off, out)

  let dedup_rows n off arr =
    (* Sort each CSR row ascending and drop duplicates, rebuilding the
       offsets. *)
    let new_off = Array.make (n + 1) 0 in
    let out = Intvec.create ~initial_capacity:(Array.length arr) () in
    for v = 0 to n - 1 do
      let row = Array.sub arr off.(v) (off.(v + 1) - off.(v)) in
      Array.sort compare row;
      let prev = ref (-1) in
      Array.iter
        (fun w ->
          if w <> !prev then begin
            Intvec.push out w;
            prev := w
          end)
        row;
      new_off.(v + 1) <- Intvec.length out
    done;
    (new_off, Intvec.to_array out)

  let freeze ?inputs ?outputs b =
    let n = b.nv in
    let srcs = Intvec.to_array b.srcs and dsts = Intvec.to_array b.dsts in
    let succ_off0, succ0 = to_csr n srcs dsts in
    let succ_off, succ = dedup_rows n succ_off0 succ0 in
    (* Rebuild the (deduplicated) edge list to derive predecessors. *)
    let m = Array.length succ in
    let e_src = Array.make m 0 and e_dst = Array.make m 0 in
    let k = ref 0 in
    for u = 0 to n - 1 do
      for j = succ_off.(u) to succ_off.(u + 1) - 1 do
        e_src.(!k) <- u;
        e_dst.(!k) <- succ.(j);
        incr k
      done
    done;
    let pred_off0, pred0 = to_csr n e_dst e_src in
    let pred_off, pred = dedup_rows n pred_off0 pred0 in
    check_acyclic n succ_off succ pred_off;
    let input_set = Bitset.create n and output_set = Bitset.create n in
    let tag what set = function
      | Some vs ->
          List.iter
            (fun v ->
              if v < 0 || v >= n then
                invalid_arg ("Cdag.Builder.freeze: " ^ what ^ " out of range");
              Bitset.add set v)
            vs
      | None ->
          (* Hong–Kung default: sources are inputs, sinks are outputs. *)
          for v = 0 to n - 1 do
            let deg =
              if what = "input" then pred_off.(v + 1) - pred_off.(v)
              else succ_off.(v + 1) - succ_off.(v)
            in
            if deg = 0 then Bitset.add set v
          done
    in
    tag "input" input_set inputs;
    tag "output" output_set outputs;
    let labels = Array.sub b.labels 0 n in
    { n; succ_off; succ; pred_off; pred; input_set; output_set; labels }
end
