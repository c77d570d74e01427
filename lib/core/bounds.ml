module Cdag = Dmc_cdag.Cdag

type report = {
  s : int;
  n_vertices : int;
  n_edges : int;
  io_floor : int;
  wavefront_lb : int;
  partition_lb : int option;
  partition_u_lb : int option;
  span_lb : int option;
  best_lb : int;
  belady_ub : int;
  lru_ub : int;
  trivial_ub : int;
  optimal_io : int option;
}

let io_floor g =
  let stored_outputs =
    List.length (List.filter (fun v -> not (Cdag.is_input g v)) (Cdag.outputs g))
  in
  Cdag.n_inputs g + stored_outputs

let pp_report ppf r =
  let pp_opt ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some x -> Format.pp_print_int ppf x
  in
  Format.fprintf ppf
    "@[<v>CDAG: %d vertices, %d edges, S = %d@,\
     lower bounds: floor = %d, wavefront = %d, partition-H = %a, partition-U = %a, span = %a -> best = %d@,\
     upper bounds: belady = %d, lru = %d, trivial = %d@,\
     optimal: %a@]"
    r.n_vertices r.n_edges r.s r.io_floor r.wavefront_lb pp_opt r.partition_lb
    pp_opt r.partition_u_lb pp_opt r.span_lb r.best_lb r.belady_ub r.lru_ub
    r.trivial_ub pp_opt r.optimal_io

let report_to_json r =
  let module J = Dmc_util.Json in
  J.Obj
    [
      ("s", J.Int r.s);
      ("n_vertices", J.Int r.n_vertices);
      ("n_edges", J.Int r.n_edges);
      ( "lower_bounds",
        J.Obj
          [
            ("io_floor", J.Int r.io_floor);
            ("wavefront", J.Int r.wavefront_lb);
            ("partition_h", J.opt (fun x -> J.Int x) r.partition_lb);
            ("partition_u", J.opt (fun x -> J.Int x) r.partition_u_lb);
            ("span", J.opt (fun x -> J.Int x) r.span_lb);
            ("best", J.Int r.best_lb);
          ] );
      ( "upper_bounds",
        J.Obj
          [
            ("belady", J.Int r.belady_ub);
            ("lru", J.Int r.lru_ub);
            ("trivial", J.Int r.trivial_ub);
          ] );
      ("optimal_io", J.opt (fun x -> J.Int x) r.optimal_io);
    ]

(* ------------------------------------------------------------------ *)
(* Result-typed engine API and governed (graceful-degradation)        *)
(* analysis.                                                          *)

module Budget = Dmc_util.Budget

type failure = Budget.failure =
  | Timeout
  | Budget_exhausted
  | Cancelled
  | Too_large of string
  | Invalid_input of string
  | Internal of string

module Engine = struct
  type 'a outcome = ('a, failure) result

  let run ?budget f =
    let go () =
      try Ok (f ()) with
      | Budget.Exhausted e -> Error e
      | Budget.Internal_error { where; details } ->
          Error (Internal (where ^ ": " ^ details))
      | Optimal.Too_large msg -> Error (Too_large msg)
      | Stack_overflow ->
          Error (Too_large "search recursion exceeded the OCaml stack")
      | Invalid_argument msg | Failure msg -> Error (Invalid_input msg)
    in
    match budget with
    | None -> go ()
    | Some b -> ( match Budget.check b with Some e -> Error e | None -> go ())

  let rbw_io ?budget ?max_states g ~s =
    run ?budget (fun () -> Optimal.rbw_io ?budget ?max_states g ~s)

  let rb_io ?budget ?max_states g ~s =
    run ?budget (fun () -> Optimal.rb_io ?budget ?max_states g ~s)

  let min_balanced_horizontal ?budget ?slack g ~procs =
    run ?budget (fun () ->
        Optimal.min_balanced_horizontal ?budget ?slack g ~procs)

  let span_lb ?budget ?max_nodes g ~s =
    run ?budget (fun () -> Span.lower_bound ?budget ?max_nodes g ~s)

  let partition_lb ?budget ?max_nodes g ~s =
    run ?budget (fun () -> Spartition.lower_bound_exact ?budget ?max_nodes g ~s)

  let partition_u_lb ?budget g ~s =
    run ?budget (fun () -> Spartition.lower_bound_u ?budget g ~s)

  let wavefront_lb ?budget ?samples ?rng g ~s =
    run ?budget (fun () -> Wavefront.lower_bound ?budget ?samples ?rng g ~s)

  let strategy_io ?budget ?policy ?order g ~s =
    run ?budget (fun () -> Strategy.io ?budget ?policy ?order g ~s)
end

type kind = Lower | Upper | Exact

let kind_to_string = function Lower -> "lb" | Upper -> "ub" | Exact -> "exact"

type row = {
  engine : string;
  kind : kind;
  value : int option;
  rung : string;
  attempts : (string * failure) list;
  elapsed : float;
}

type governed = {
  gov_s : int;
  gov_n_vertices : int;
  gov_n_edges : int;
  gov_rows : row list;
  gov_best_lb : int;
  gov_best_ub : int option;
}

let failure_token = function
  | Timeout -> "timeout"
  | Budget_exhausted -> "budget"
  | Cancelled -> "cancelled"
  | Too_large _ -> "skipped"
  | Invalid_input _ -> "invalid"
  | Internal _ -> "internal"

let row_status r =
  match r.attempts with
  | [] -> "ok"
  | (_, first) :: _ -> (
      match r.value with
      | Some _ ->
          Printf.sprintf "%s(fallback=%s)" (failure_token first) r.rung
      | None -> failure_token first)

let governed_engines =
  [
    ("floor", Lower);
    ("wavefront", Lower);
    ("partition-h", Lower);
    ("partition-u", Lower);
    ("span", Lower);
    ("optimal", Exact);
    ("belady", Upper);
    ("lru", Upper);
  ]

(* ------------------------------------------------------------------ *)
(* Rung plans and the ladder runner                                    *)

type mode =
  | Report of { optimal_limit : int }
  | Ladder of { timeout : float option; node_budget : int option }

type step =
  | Rung of string * (Budget.t option -> int)
  | Refused of string * string

let c_ticks = Dmc_obs.Counter.make "budget.ticks"

let run_ladder mode ~engine ~kind steps =
  let fresh_budget () =
    match mode with
    | Report _ | Ladder { timeout = None; node_budget = None } -> None
    | Ladder { timeout; node_budget } ->
        Some (Budget.create ?deadline:timeout ?nodes:node_budget ())
  in
  let t0 = Budget.now () in
  let finish value rung attempts =
    { engine; kind; value; rung; attempts = List.rev attempts;
      elapsed = Budget.now () -. t0 }
  in
  (* Each rung gets its own fresh budget: a rung that times out must not
     also starve its fallback.  The first rung that succeeds wins the
     row; a refused rung is recorded without running. *)
  let rec go attempts = function
    | [] -> finish None "-" attempts
    | Refused (rung, reason) :: rest -> go ((rung, Too_large reason) :: attempts) rest
    | Rung (rung, compute) :: rest -> (
        (* Terminal rungs (the I/O floor, the trivial schedule) are O(n)
           and exist precisely so a starved budget still yields a sound
           value — they run outside the budget.  The floor engine's own
           row is terminal in the same sense: its value is already
           computed, and budgeting it would let a fully expired deadline
           (the check races the clock even for a pure return) strip the
           one row that may never lose its value. *)
        let budget =
          if rung = "floor" || rung = "trivial" || engine = "floor" then None
          else fresh_budget ()
        in
        let outcome =
          Dmc_obs.Span.with_
            ~attrs:[ ("engine", engine); ("rung", rung) ]
            (engine ^ "/" ^ rung)
            (fun () ->
              let r = Engine.run ?budget (fun () -> compute budget) in
              (match budget with
              | Some b ->
                  let spent = Budget.spent b in
                  Dmc_obs.Counter.add c_ticks spent;
                  Dmc_obs.Span.note "ticks" (string_of_int spent)
              | None -> ());
              (match r with
              | Ok _ -> Dmc_obs.Span.note "outcome" "ok"
              | Error e -> Dmc_obs.Span.note "outcome" (failure_token e));
              r)
        in
        match outcome with
        | Ok v -> finish (Some v) rung attempts
        | Error e -> go ((rung, e) :: attempts) rest)
  in
  go [] steps

(* ------------------------------------------------------------------ *)
(* The sequential engines' plans                                       *)

let fits_trivial g ~s =
  s
  > Cdag.fold_vertices g
      (fun acc v ->
        if Cdag.is_input g v then acc else max acc (Cdag.in_degree g v))
      0

let kind_of engine =
  match List.assoc_opt engine governed_engines with
  | Some k -> k
  | None -> invalid_arg ("Bounds: unknown engine " ^ engine)

(* [wavefront] is the wavefront row of the same run: its achieved value
   is the middle rung of every other lower-bound ladder (a sound lower
   bound for the same quantity).  Left unforced, each row — a pool
   worker's, say — derives it on demand, which is value-deterministic
   (fixed sampler seed) even if the work is repeated. *)
let rec row ?samples ?wavefront mode g ~s engine =
  match (engine, wavefront) with
  | "wavefront", Some wf -> Lazy.force wf
  | _ ->
      run_ladder mode ~engine ~kind:(kind_of engine)
        (plan ?samples ?wavefront mode g ~s engine)

and plan ?(samples = 64) ?wavefront mode g ~s engine =
  let n = Cdag.n_vertices g and n_compute = Cdag.n_compute g in
  let floor = io_floor g in
  let floor_rung = Rung ("floor", fun _ -> floor) in
  (* An exhaustive search: in a report, run within its size gate and
     refused beyond it; in a ladder, always tried, falling back to the
     wavefront row's value and then to the floor. *)
  let search ~fits limit compute =
    match mode with
    | Report _ when fits -> [ Rung ("exact", compute) ]
    | Report _ ->
        [
          Refused
            ( "exact",
              Printf.sprintf "refused by size: %d vertices, %d compute (limit %s)"
                n n_compute limit );
        ]
    | Ladder _ ->
        let wavefront =
          match wavefront with
          | Some wf -> wf
          | None -> lazy (row ~samples mode g ~s "wavefront")
        in
        [
          Rung ("exact", compute);
          Rung
            ( "wavefront",
              fun _ -> Option.value ~default:floor (Lazy.force wavefront).value );
          floor_rung;
        ]
  in
  let schedule policy =
    Rung ("exact", fun b -> Strategy.io ?budget:b ~policy g ~s)
    ::
    (match mode with
    | Report _ -> []
    | Ladder _ ->
        (* the trivial schedule only exists when every vertex's operands
           fit beside it, so the upper-bound ladder's last rung still
           has a precondition *)
        [
          Rung
            ( "trivial",
              fun _ ->
                if fits_trivial g ~s then Strategy.trivial_io g
                else failwith "Bounds: S too small for the trivial schedule" );
        ])
  in
  match (engine, mode) with
  | "floor", _ -> [ Rung ("exact", fun _ -> floor) ]
  | "wavefront", Report _ ->
      [ Rung ("auto", fun b -> Wavefront.lower_bound ?budget:b ~samples g ~s) ]
  | "wavefront", Ladder _ ->
      [
        Rung
          ( "exact",
            fun b -> Wavefront.lower_bound_via (Wavefront.wmax_exact ?budget:b) g ~s
          );
        Rung
          ( "sampled",
            fun b ->
              let rng = Dmc_util.Rng.create 0x5eed in
              Wavefront.lower_bound_via
                (fun g' -> Wavefront.wmax_sampled_anytime ?budget:b rng g' ~samples)
                g ~s );
        floor_rung;
      ]
  | "partition-h", _ ->
      search ~fits:(n_compute <= 9) "9 compute" (fun b ->
          Spartition.lower_bound_exact ?budget:b g ~s)
  | "partition-u", _ ->
      search
        ~fits:(n_compute <= 22 && n <= 62)
        "22 compute, 62 vertices"
        (fun b -> Spartition.lower_bound_u ?budget:b g ~s)
  | "span", _ ->
      search ~fits:(n <= 16) "16 vertices" (fun b -> Span.lower_bound ?budget:b g ~s)
  | "optimal", _ ->
      let limit =
        match mode with Report { optimal_limit } -> min optimal_limit 20 | Ladder _ -> 0
      in
      search ~fits:(limit > 0 && n <= limit) (Printf.sprintf "%d vertices" limit)
        (fun b -> Optimal.rbw_io ?budget:b g ~s)
  | "belady", _ -> schedule Strategy.Belady
  | "lru", _ -> schedule Strategy.Lru
  | _ -> invalid_arg ("Bounds: unknown engine " ^ engine)

let governed_row ?timeout ?node_budget ?samples g ~s engine =
  row ?samples (Ladder { timeout; node_budget }) g ~s engine

(* Every governed engine in-process, sharing one wavefront row. *)
let rows ?samples mode g ~s =
  let wavefront = lazy (row ?samples mode g ~s "wavefront") in
  List.map (fun (name, _) -> row ?samples ~wavefront mode g ~s name) governed_engines

let assemble_governed g ~s rows =
  let best_lb =
    List.fold_left
      (fun acc r ->
        match (r.kind, r.value) with
        | (Lower | Exact), Some v -> max acc v
        | _ -> acc)
      0 rows
  in
  let best_ub =
    List.fold_left
      (fun acc r ->
        let candidate =
          match (r.kind, r.value) with
          | Upper, Some v -> Some v
          | Exact, Some v when r.rung = "exact" -> Some v
          | _ -> None
        in
        match (acc, candidate) with
        | None, c -> c
        | Some a, Some c -> Some (min a c)
        | (Some _ as a), None -> a)
      None rows
  in
  {
    gov_s = s;
    gov_n_vertices = Cdag.n_vertices g;
    gov_n_edges = Cdag.n_edges g;
    gov_rows = rows;
    gov_best_lb = best_lb;
    gov_best_ub = best_ub;
  }

let kind_of_string = function
  | "lb" -> Some Lower
  | "ub" -> Some Upper
  | "exact" -> Some Exact
  | _ -> None

let row_to_json r =
  let module J = Dmc_util.Json in
  J.Obj
    [
      ("engine", J.String r.engine);
      ("kind", J.String (kind_to_string r.kind));
      ("value", J.opt (fun v -> J.Int v) r.value);
      ("status", J.String (row_status r));
      ("rung", J.String r.rung);
      ( "failed_rungs",
        J.List
          (List.map
             (fun (rung, e) ->
               J.Obj
                 [
                   ("rung", J.String rung);
                   ("failure", J.String (Budget.failure_to_string e));
                 ])
             r.attempts) );
      ("elapsed_s", J.Float r.elapsed);
    ]

let row_of_json json =
  let module J = Dmc_util.Json in
  let ( let* ) = Option.bind in
  let* engine = Option.bind (J.mem json "engine") J.as_string in
  let* kind = Option.bind (Option.bind (J.mem json "kind") J.as_string) kind_of_string in
  let value =
    match J.mem json "value" with Some j -> J.as_int j | None -> None
  in
  let* rung = Option.bind (J.mem json "rung") J.as_string in
  let* elapsed = Option.bind (J.mem json "elapsed_s") J.as_float in
  let* attempts =
    match Option.bind (J.mem json "failed_rungs") J.as_list with
    | None -> None
    | Some l ->
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            let* rung = Option.bind (J.mem entry "rung") J.as_string in
            let* failure =
              Option.bind
                (Option.bind (J.mem entry "failure") J.as_string)
                Budget.failure_of_string
            in
            Some ((rung, failure) :: acc))
          (Some []) l
        |> Option.map List.rev
  in
  Some { engine; kind; value; rung; attempts; elapsed }

(* ------------------------------------------------------------------ *)
(* Reading rows back: the report, the ladder table, lost workers       *)

(* A report row's value: [None] when its rung was refused by size or
   its worker was lost.  A report has no status column, so a lost
   worker's stand-in (its ladder's terminal rung) must not be printed
   under the engine's own label: the optional fields drop it, the
   required ones fail.  Report rungs give up only by size; any other
   failure — a Strategy error such as "S too small" — is the caller's,
   raised with the engine's own message. *)
let report_of_rows g ~s rows =
  let value name =
    let r = List.find (fun r -> r.engine = name) rows in
    match List.assoc_opt "worker" r.attempts with
    | Some e -> Error e
    | None ->
        List.iter
          (fun (_, e) ->
            match e with
            | Too_large _ -> ()
            | Invalid_input m | Internal m -> failwith m
            | e -> failwith (Budget.failure_to_string e))
          r.attempts;
        Ok r.value
  in
  let optional name = match value name with Ok v -> v | Error _ -> None in
  let known name =
    match value name with
    | Ok (Some v) -> v
    | Ok None -> failwith (name ^ ": no value")
    | Error e ->
        failwith
          (Printf.sprintf "%s: worker lost (%s)" name (Budget.failure_to_string e))
  in
  let floor = known "floor" and wavefront_lb = known "wavefront" in
  let partition_lb = optional "partition-h"
  and partition_u_lb = optional "partition-u"
  and span_lb = optional "span" in
  {
    s;
    n_vertices = Cdag.n_vertices g;
    n_edges = Cdag.n_edges g;
    io_floor = floor;
    wavefront_lb;
    partition_lb;
    partition_u_lb;
    span_lb;
    best_lb =
      List.fold_left max 0
        (floor :: wavefront_lb
        :: List.filter_map Fun.id [ partition_lb; partition_u_lb; span_lb ]);
    belady_ub = known "belady";
    lru_ub = known "lru";
    trivial_ub = Strategy.trivial_io g;
    optimal_io = optional "optimal";
  }

let analyze ?(optimal_limit = 0) g ~s =
  report_of_rows g ~s (rows (Report { optimal_limit }) g ~s)

let analyze_governed ?timeout ?node_budget ?samples g ~s =
  Dmc_obs.Span.with_
    ~attrs:[ ("s", string_of_int s); ("n", string_of_int (Cdag.n_vertices g)) ]
    "bounds.analyze_governed"
  @@ fun () ->
  assemble_governed g ~s (rows ?samples (Ladder { timeout; node_budget }) g ~s)

let of_verdict ~steps ~engine ~kind ~elapsed verdict =
  (* A lost worker's row is its ladder's terminal rung, run here, with
     the pool verdict recorded as the failed "worker" rung. *)
  let lost failure =
    let terminal = List.nth steps (List.length steps - 1) in
    let r =
      run_ladder (Ladder { timeout = None; node_budget = None }) ~engine ~kind
        [ terminal ]
    in
    { r with attempts = [ ("worker", failure) ]; elapsed }
  in
  match verdict with
  | Dmc_runtime.Pool.Done payload -> (
      match row_of_json payload with
      | Some r -> r
      | None -> lost (Internal "worker returned an unparseable row"))
  | v -> lost (Option.get (Dmc_runtime.Pool.verdict_failure v))

let pp_governed ppf gr =
  let module T = Dmc_util.Table in
  let t = T.create ~headers:[ "engine"; "kind"; "value"; "status"; "rung"; "time" ] in
  T.set_align t [ T.Left; T.Left; T.Right; T.Left; T.Left; T.Right ];
  List.iter
    (fun r ->
      T.add_row t
        [
          r.engine;
          kind_to_string r.kind;
          (match r.value with Some v -> string_of_int v | None -> "-");
          row_status r;
          r.rung;
          Printf.sprintf "%.2fs" r.elapsed;
        ])
    gr.gov_rows;
  Format.fprintf ppf "CDAG: %d vertices, %d edges, S = %d@." gr.gov_n_vertices
    gr.gov_n_edges gr.gov_s;
  Format.pp_print_string ppf (T.render t);
  Format.fprintf ppf "best lower bound = %d" gr.gov_best_lb;
  (match gr.gov_best_ub with
  | Some ub -> Format.fprintf ppf ", best upper bound = %d" ub
  | None -> ());
  Format.fprintf ppf "@."

let governed_to_json gr =
  let module J = Dmc_util.Json in
  let row_json = row_to_json in
  J.Obj
    [
      ("s", J.Int gr.gov_s);
      ("n_vertices", J.Int gr.gov_n_vertices);
      ("n_edges", J.Int gr.gov_n_edges);
      ("rows", J.List (List.map row_json gr.gov_rows));
      ("best_lb", J.Int gr.gov_best_lb);
      ("best_ub", J.opt (fun v -> J.Int v) gr.gov_best_ub);
    ]

let certify_wavefront ?(samples = 64) g ~s =
  ignore s;
  let part, _ = Dmc_cdag.Subgraph.drop_inputs g in
  let stripped = part.Dmc_cdag.Subgraph.graph in
  let n = Cdag.n_vertices stripped in
  if n = 0 then true
  else begin
    let candidates =
      if n <= Wavefront.exact_threshold then List.init n Fun.id
      else begin
        let rng = Dmc_util.Rng.create 0x5eed in
        List.init samples (fun _ -> Dmc_util.Rng.int rng n)
      end
    in
    let best = ref 0 and best_w = ref (-1) in
    List.iter
      (fun x ->
        let w = Wavefront.min_wavefront stripped x in
        if w > !best_w then begin
          best_w := w;
          best := x
        end)
      candidates;
    let witness = Wavefront.witness stripped !best in
    Wavefront.verify_witness stripped witness
    && (witness.Wavefront.paths = [] || List.length witness.Wavefront.paths = !best_w)
  end
