module Budget = Dmc_util.Budget

let signal : int option ref = ref None

let exit_code s = if s = Sys.sigterm then 143 else 130

let install_interrupt_handlers () =
  let handle s =
    Sys.Signal_handle
      (fun _ ->
        match !signal with
        | Some _ -> exit (exit_code s)
        | None -> signal := Some s)
  in
  Sys.set_signal Sys.sigint (handle Sys.sigint);
  Sys.set_signal Sys.sigterm (handle Sys.sigterm)

let interrupted () = Option.map exit_code !signal

type settings = {
  jobs : int;
  job_timeout : float option;
  retries : int;
  faults : Fault.t list;
  progress : bool;
  postmortem : string option;
  observed : bool;
}

let default =
  {
    jobs = 1;
    job_timeout = None;
    retries = 2;
    faults = [];
    progress = false;
    postmortem = None;
    observed = false;
  }

let faults spec =
  let env = Fault.of_env () in
  match spec with
  | None -> env
  | Some spec -> (
      match Fault.parse spec with
      | Ok faults -> env @ faults
      | Error msg -> failwith msg)

let supervised ?(hosts = []) s =
  s.jobs > 1 || s.job_timeout <> None || s.faults <> [] || s.observed
  || s.progress || s.postmortem <> None || hosts <> []

let cancelled_outcome =
  let verdict = Pool.Engine_failure Budget.Cancelled in
  { Pool.verdict; attempts = 0; backoffs = []; elapsed = 0. }

(* In-process jobs currently running.  A batch started inside one (a
   streamed sweep inside an experiment part) is nested: it ignores the
   interrupt, which the outer batch honours once the job returns, so a
   committed job never carries a half-cancelled inner result. *)
let depth = ref 0

(* The in-process backend: the jobs run here, in submission order, so
   each one commits as soon as it finishes.  The stop and drain checks
   sit between jobs, where the pool would stop dispatching. *)
let in_process ~should_stop ~accept_more ~worker ~on_result jobs =
  let outcomes = Array.make (List.length jobs) cancelled_outcome in
  let rec go i = function
    | job :: rest when (not (should_stop ())) && accept_more () ->
        let t0 = Unix.gettimeofday () in
        incr depth;
        let result = Transport.guard (fun () -> worker i job) in
        decr depth;
        let verdict =
          match result with
          | Ok payload -> Pool.Done payload
          | Error f -> Pool.Engine_failure f
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        let o = { Pool.verdict; attempts = 1; backoffs = []; elapsed } in
        outcomes.(i) <- o;
        on_result i o;
        go (i + 1) rest
    | _ -> ()
  in
  go 0 jobs;
  outcomes

let batch ?hosts ?encode ?deadline s ~worker ?(on_result = fun _ _ -> ())
    jobs =
  let should_stop () = !depth = 0 && !signal <> None in
  let accept_more () =
    match deadline with None -> true | Some d -> Unix.gettimeofday () <= d
  in
  if not (supervised ?hosts s) then
    in_process ~should_stop ~accept_more ~worker ~on_result jobs
  else begin
    let cfg =
      {
        Pool.default with
        jobs = s.jobs;
        timeout = s.job_timeout;
        max_retries = s.retries;
        faults = s.faults;
        should_stop;
        accept_more;
        on_progress = (if s.progress then Some Progress.draw else None);
        postmortem_dir = s.postmortem;
      }
    in
    let outcomes = Pool.run ?hosts ?encode cfg ~worker ~on_result jobs in
    if s.progress then Progress.clear ();
    outcomes
  end

let cancelled outcomes =
  Array.fold_left
    (fun n o -> if o.Pool.verdict = cancelled_outcome.verdict then n + 1 else n)
    0 outcomes

let resume_hint = function
  | Some p when Sys.file_exists p -> "; resume with --resume " ^ p
  | Some _ | None -> ""
