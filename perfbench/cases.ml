(* The four workloads' operation lists, drawn from the workload seed.

   Fixed specs carry committed expected outputs (expected.json).  The
   seed draws only the random-DAG specs and the serve request sequence,
   with fixed shapes, so every seed costs about the same and any seed
   can be checked by invariants alone. *)

type mode =
  | Analyze of { optimal : bool }  (** [dmc bounds] on the ungoverned path *)
  | Symbolic  (** [dmc bounds --symbolic] *)
  | Stream  (** [dmc bounds --stream] *)
  | Experiment of string  (** [dmc experiment NAME] *)
  | Governed of { budget : int; jobs : int }
      (** [dmc bounds --jobs J --budget N --json]: the pooled governed ladder *)

type op = { mode : mode; spec : string; s : int; seeded : bool }

(* The governed node budget.  Budgets, unlike deadlines, give the same
   rows at every --jobs width and on every run. *)
let gov_budget = 200_000

let argv op =
  let gs = [ "-g"; op.spec; "-S"; string_of_int op.s ] in
  match op.mode with
  | Analyze { optimal } ->
      ("bounds" :: (if optimal then [ "--optimal" ] else [])) @ gs
  | Symbolic -> ("bounds" :: "--symbolic" :: gs)
  | Stream -> ("bounds" :: "--stream" :: gs)
  | Experiment name -> [ "experiment"; name ]
  | Governed { budget; jobs } ->
      ("bounds" :: gs)
      @ [ "--jobs"; string_of_int jobs; "--budget"; string_of_int budget; "--json" ]

(* The expected-output key: the command without its --jobs width, since
   the answer may not depend on it. *)
let key op =
  match op.mode with
  | Governed { budget; _ } ->
      Printf.sprintf "governed -g %s -S %d --budget %d" op.spec op.s budget
  | _ -> String.concat " " (argv op)

let fixed mode = List.map (fun (spec, s) -> { mode; spec; s; seeded = false })

(* Smallest S the schedules accept on a random DAG: above its largest
   in-degree, and at least [floor]. *)
let fit_s spec ~floor =
  let g = Dmc_gen.Workload.parse_exn spec in
  let deg = ref 0 in
  for v = 0 to Dmc_cdag.Cdag.n_vertices g - 1 do
    deg := max !deg (Dmc_cdag.Cdag.in_degree g v)
  done;
  max floor (!deg + 1)

let seeded mode rng ~template ~floor =
  let spec = Printf.sprintf template (1 + Dmc_util.Rng.int rng 1_000_000) in
  { mode; spec; s = fit_s spec ~floor; seeded = true }

let ground_truth seed =
  let rng = Dmc_util.Rng.create (seed * 4 + 1) in
  let mode = Analyze { optimal = true } in
  fixed mode
    [
      ("diamond:3,4", 3); ("tree:8", 3); ("tree:8", 5); ("fft:2", 3); ("fft:2", 5);
      ("pyramid:4", 3); ("pyramid:4", 5); ("jacobi1d:4,2", 5);
    ]
  @ List.init 2 (fun _ -> seeded mode rng ~template:"layered:%d,3,3" ~floor:4)

let mix_specs =
  [
    ("cg:3,3,2", 16); ("cg:4,2,3", 16); ("gmres:4,2,4", 16);
    ("multigrid:32,3,2", 16); ("bitonic:5", 8); ("composite:8", 8);
    ("jacobi3d:6,3", 32); ("fft:6", 8); ("jacobi1d:200,20", 16);
  ]

let bounds_mix seed =
  let rng = Dmc_util.Rng.create (seed * 4 + 2) in
  let mode = Analyze { optimal = false } in
  fixed mode mix_specs
  @ [ seeded mode rng ~template:"daggen:%d,500,3,6,2" ~floor:16 ]
  @ fixed Symbolic [ ("jacobi1d:1000000000", 1024) ]
  @ fixed Stream [ ("jacobi1d:20000,10", 32) ]
  @ [ { mode = Experiment "fft"; spec = "fft"; s = 0; seeded = false } ]

let governed ~jobs seed =
  let rng = Dmc_util.Rng.create (seed * 4 + 3) in
  let mode = Governed { budget = gov_budget; jobs } in
  fixed mode
    [
      ("cg:3,3,2", 16); ("gmres:4,2,4", 16); ("multigrid:32,3,2", 16);
      ("bitonic:5", 8); ("composite:8", 8); ("fft:6", 8);
      ("jacobi1d:200,20", 16);
    ]
  @ [ seeded mode rng ~template:"daggen:%d,300,3,6,2" ~floor:16 ]

(* serve-burst: a universe of cheap (spec, S, engine) keys, filled cold
   in an order drawn from the seed while a second client re-asks keys
   already answered, also drawn from the seed. *)
type query = { q_spec : string; q_s : int; q_engine : string }

let serve_specs =
  [
    "fft:3"; "fft:4"; "fft:5"; "jacobi1d:16,4"; "jacobi1d:24,6"; "diamond:6,6";
    "diamond:8,4"; "tree:32"; "tree:128"; "pyramid:8"; "chain:32"; "bitonic:3";
    "cg:2,2,2"; "composite:4"; "jacobi2d:4,2"; "matmul:3"; "thomas:16";
  ]

let serve_s = [ 8; 16; 32 ]
let serve_engines = [ "wavefront"; "belady"; "lru" ]

let universe =
  List.concat_map
    (fun q_spec ->
      List.concat_map
        (fun q_s -> List.map (fun q_engine -> { q_spec; q_s; q_engine }) serve_engines)
        serve_s)
    serve_specs

let serve_cold_order seed =
  let a = Array.of_list universe in
  Dmc_util.Rng.shuffle (Dmc_util.Rng.create ((seed * 4) + 4)) a;
  a

let serve_hit_rng seed = Dmc_util.Rng.create ((seed * 4) + 5)

let workloads = [ "ground-truth"; "bounds-mix"; "bounds-governed"; "serve-burst" ]

(* The batch operation list of a workload at [seed]. *)
let batch_ops name seed =
  match name with
  | "ground-truth" -> Some (ground_truth seed)
  | "bounds-mix" -> Some (bounds_mix seed)
  | "bounds-governed" -> Some (governed ~jobs:2 seed)
  | _ -> None
