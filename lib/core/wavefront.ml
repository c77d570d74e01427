module Bitset = Dmc_util.Bitset
module Rng = Dmc_util.Rng
module Cdag = Dmc_cdag.Cdag
module Reach = Dmc_cdag.Reach
module Subgraph = Dmc_cdag.Subgraph
module Vertex_cut = Dmc_flow.Vertex_cut

let c_mincut = Dmc_obs.Counter.make "wavefront.mincut_calls"
let h_cut_size = Dmc_obs.Histogram.make "wavefront.cut_size"

let min_wavefront_cut ?budget g x =
  Dmc_obs.Counter.incr c_mincut;
  let desc = Reach.descendants g x in
  if Bitset.is_empty desc then begin
    Dmc_obs.Histogram.observe h_cut_size 1;
    (1, [ x ])
  end
  else begin
    let anc = Reach.ancestors g x in
    let from_set = x :: Bitset.elements anc in
    let to_set = Bitset.elements desc in
    let r =
      Vertex_cut.min_vertex_cut ?budget g ~from_set ~to_set ~uncuttable:to_set ()
    in
    Dmc_obs.Histogram.observe h_cut_size r.size;
    (r.size, r.cut)
  end

let min_wavefront ?budget g x = fst (min_wavefront_cut ?budget g x)

let wmax_exact ?budget g =
  Dmc_obs.Span.with_
    ~attrs:[ ("n", string_of_int (Cdag.n_vertices g)) ]
    "wavefront.wmax_exact"
    (fun () ->
      Cdag.fold_vertices g (fun acc x -> max acc (min_wavefront ?budget g x)) 0)

let wmax_sampled ?budget rng g ~samples =
  let n = Cdag.n_vertices g in
  if n = 0 then 0
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("n", string_of_int n); ("samples", string_of_int samples) ]
      "wavefront.wmax_sampled"
      (fun () ->
        let best = ref 0 in
        for _ = 1 to samples do
          let x = Rng.int rng n in
          best := max !best (min_wavefront ?budget g x)
        done;
        !best)

(* Anytime variant for the fallback ladder: sample until the budget
   runs out and keep the best bound found so far.  Sound because
   Lemma 2 holds for every vertex, so a partial sweep only weakens the
   bound, never invalidates it. *)
let wmax_sampled_anytime ?budget rng g ~samples =
  let n = Cdag.n_vertices g in
  if n = 0 then 0
  else
    Dmc_obs.Span.with_
      ~attrs:[ ("n", string_of_int n); ("samples", string_of_int samples) ]
      "wavefront.wmax_sampled_anytime"
      (fun () ->
        let best = ref 0 in
        let completed = ref 0 in
        (try
           for _ = 1 to samples do
             let x = Rng.int rng n in
             best := max !best (min_wavefront ?budget g x);
             incr completed
           done
         with Dmc_util.Budget.Exhausted _ -> ());
        Dmc_obs.Span.note "completed" (string_of_int !completed);
        !best)

let lemma2_bound ~wavefront ~s = max 0 (2 * (wavefront - s))

type witness = {
  x : Cdag.vertex;
  paths : Cdag.vertex list list;
}

let witness g x =
  let desc = Reach.descendants g x in
  if Bitset.is_empty desc then { x; paths = [] }
  else begin
    let anc = Reach.ancestors g x in
    let from_set = x :: Bitset.elements anc in
    let to_set = Bitset.elements desc in
    let paths =
      Vertex_cut.path_witness g ~from_set ~to_set ~uncuttable:to_set ()
    in
    { x; paths }
  end

let verify_witness g w =
  let n = Cdag.n_vertices g in
  let desc = Reach.descendants g w.x in
  let anc = Reach.ancestors g w.x in
  let seen_outside = Bitset.create n in
  let path_ok path =
    match path with
    | [] -> false
    | first :: _ ->
        (* starts at x or one of its ancestors *)
        (first = w.x || Bitset.mem anc first)
        (* consecutive vertices are edges *)
        && (let rec edges_ok = function
              | a :: (b :: _ as rest) -> Cdag.has_edge g a b && edges_ok rest
              | [ _ ] | [] -> true
            in
            edges_ok path)
        (* ends inside Desc(x) *)
        && Bitset.mem desc (List.nth path (List.length path - 1))
        (* vertices outside Desc(x) belong to this path alone *)
        && List.for_all
             (fun v ->
               Bitset.mem desc v
               ||
               if Bitset.mem seen_outside v then false
               else begin
                 Bitset.add seen_outside v;
                 true
               end)
             path
  in
  List.for_all path_ok w.paths

let exact_threshold = 512

(* Two sound variants: drop only the inputs (outputs keep their
   wavefront paths), or drop both and bank |dO| as forced stores.
   Take the better.  [wmax_of] computes the max min-wavefront of a
   stripped graph; parameterizing it lets the fallback ladder swap the
   exact sweep for the anytime sampler without duplicating the
   stripping logic. *)
let lower_bound_via wmax_of g ~s =
  let wmax stripped =
    if Cdag.n_vertices stripped = 0 then 0 else wmax_of stripped
  in
  let part_i, di = Subgraph.drop_inputs g in
  let via_inputs = lemma2_bound ~wavefront:(wmax part_i.Subgraph.graph) ~s + di in
  let part_io, di', d_o = Subgraph.drop_io g in
  let via_both =
    lemma2_bound ~wavefront:(wmax part_io.Subgraph.graph) ~s + di' + d_o
  in
  max via_inputs via_both

let lower_bound ?budget ?(samples = 64) ?rng g ~s =
  let wmax stripped =
    if Cdag.n_vertices stripped <= exact_threshold then
      wmax_exact ?budget stripped
    else
      let rng = match rng with Some r -> r | None -> Rng.create 0x5eed in
      wmax_sampled ?budget rng stripped ~samples
  in
  lower_bound_via wmax g ~s
