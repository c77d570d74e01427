module Implicit = Dmc_cdag.Implicit
module Subgraph = Dmc_cdag.Subgraph
module Json = Dmc_util.Json
module Pool = Dmc_runtime.Pool
module Run = Dmc_runtime.Run

type window_bound = { lo : int; hi : int; bound : int }

type result = {
  total : int;
  n_windows : int;
  degraded : int;
  windows : window_bound array;
}

let default_window = 4096

let c_windows = Dmc_obs.Counter.make "core.streaming.windows"

let window_bound ?samples imp ~s ~lo ~hi =
  Dmc_obs.Counter.incr c_windows;
  let part = Implicit.window imp ~lo ~hi in
  Wavefront.lower_bound ?samples part.Subgraph.graph ~s

(* The windows go through the shared batch runner: in the caller by
   default, fanned out over fork workers when the settings ask for a
   supervisor.  The implicit graph crosses into each worker by fork
   (closures need no serialization), and results commit in window
   order, so the totals and rows are identical for every width.  A
   window whose worker is lost (crash, timeout after retries) or that
   never started (interrupt, drain deadline) contributes the trivial
   bound 0, which keeps the Theorem-2 sum sound. *)
let wavefront_sum ?samples ?(window = default_window) ?(settings = Run.default)
    ?deadline imp ~s =
  if window <= 0 then invalid_arg "Streaming.wavefront_sum: window <= 0";
  let n = imp.Implicit.n_vertices in
  let n_windows = (n + window - 1) / window in
  let range w = (w * window, min n ((w + 1) * window)) in
  let bounds = Array.make n_windows 0 and bounded = ref 0 in
  let worker _ w =
    let lo, hi = range w in
    Ok (Json.Int (window_bound ?samples imp ~s ~lo ~hi))
  in
  let on_result w (o : Pool.outcome) =
    match o.Pool.verdict with
    | Pool.Done (Json.Int b as payload) ->
        bounds.(w) <- b;
        incr bounded;
        payload
    | _ -> Json.Null
  in
  let _ : Pool.outcome array =
    Run.batch ?deadline settings ~worker ~on_result (List.init n_windows Fun.id)
  in
  let windows =
    Array.mapi
      (fun w bound ->
        let lo, hi = range w in
        { lo; hi; bound })
      bounds
  in
  {
    total = Array.fold_left ( + ) 0 bounds;
    n_windows;
    degraded = n_windows - !bounded;
    windows;
  }
