module Budget = Dmc_util.Budget
module Json = Dmc_util.Json
module Checkpoint = Dmc_util.Checkpoint

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

type checkpoint = {
  path : string option;
  resume : string option;
  kind : string;
  signature : Json.t;
}

(* v3 is the one schema every driver shares.  v2 (experiment, sweep)
   and the unversioned fuzz files are refused by version, not read. *)
let checkpoint_version = 3

let checkpoint_json c committed_rev =
  Json.Obj
    [
      ("kind", Json.String c.kind);
      ("v", Json.Int checkpoint_version);
      ("signature", c.signature);
      ("committed", Json.List (List.rev committed_rev));
    ]

(* The committed prefix to replay, or [Failure] naming why the stored
   checkpoint cannot belong to this batch.  Signatures compare as
   printed JSON: a float such as a 2 s timeout reads back as an int. *)
let restore c ~n_jobs =
  match c.resume with
  | None -> []
  | Some path -> (
      let refuse fmt =
        Printf.ksprintf
          (fun why ->
            failwith (Printf.sprintf "cannot resume from %s: %s" path why))
          fmt
      in
      match Checkpoint.load path with
      | Error msg -> refuse "%s" msg
      | Ok json -> (
          let field f conv = Option.bind (Json.mem json f) conv in
          (match field "kind" Json.as_string with
          | Some k when k = c.kind -> ()
          | Some k -> refuse "it is a %s checkpoint, not a %s one" k c.kind
          | None -> refuse "not a %s checkpoint" c.kind);
          let regen = "regenerate it with --checkpoint" in
          (match field "v" Json.as_int with
          | Some v when v = checkpoint_version -> ()
          | Some v ->
              refuse "checkpoint schema v%d, this build reads v%d; %s" v
                checkpoint_version regen
          | None ->
              refuse
                "checkpoint has no schema version, this build reads v%d; %s"
                checkpoint_version regen);
          let print = Json.to_string ~indent:false in
          (match Json.mem json "signature" with
          | Some s when print s = print c.signature -> ()
          | s ->
              refuse "checkpoint was written for %s, this run is %s"
                (Option.fold ~none:"nothing" ~some:print s)
                (print c.signature));
          match field "committed" Json.as_list with
          | None -> refuse "checkpoint has no committed list"
          | Some committed when List.length committed > n_jobs ->
              refuse "checkpoint commits %d job(s), this run has %d"
                (List.length committed) n_jobs
          | Some committed -> committed))

let replayed payload =
  let verdict = Pool.Done payload in
  { Pool.verdict; attempts = 0; backoffs = []; elapsed = 0. }

let done_payload _ o =
  match o.Pool.verdict with Pool.Done payload -> payload | _ -> Json.Null

(* Dispatch the jobs past a committed prefix of [k] on the backend the
   settings choose; [worker] and [on_result] see indices local to
   [jobs].  A fault names a job of the whole batch, so the pool, which
   numbers [jobs] from 1, gets the faults past the prefix shifted by
   [k]. *)
let dispatch ?hosts ?encode ?deadline s ~k ~worker ~on_result jobs =
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
        faults =
          List.filter_map
            (fun (f : Fault.t) ->
              if f.job > k then Some { f with job = f.job - k } else None)
            s.faults;
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

let batch ?hosts ?encode ?deadline ?checkpoint s ~worker
    ?(on_result = done_payload) jobs =
  let n_jobs = List.length jobs in
  let prefix =
    Option.fold ~none:[] ~some:(fun c -> restore c ~n_jobs) checkpoint
  in
  let k = List.length prefix in
  Option.iter
    (fun c ->
      if k > 0 then
        Printf.eprintf "%s: resuming, %d/%d job(s) already committed\n%!"
          c.kind k n_jobs)
    checkpoint;
  let committed_rev = ref [] in
  let commit i o = committed_rev := on_result i o :: !committed_rev in
  List.iteri (fun i payload -> commit i (replayed payload)) prefix;
  let write () =
    match checkpoint with
    | Some ({ path = Some p; _ } as c) ->
        Checkpoint.write p (checkpoint_json c !committed_rev)
    | Some { path = None; _ } | None -> ()
  in
  let outcomes =
    dispatch ?hosts ?encode ?deadline s ~k
      ~worker:(fun i job -> worker (k + i) job)
      ~on_result:(fun i o ->
        commit (k + i) o;
        write ())
      (List.filteri (fun i _ -> i >= k) jobs)
  in
  Array.append (Array.of_list (List.map replayed prefix)) outcomes

let cancelled outcomes =
  Array.fold_left
    (fun n o -> if o.Pool.verdict = cancelled_outcome.verdict then n + 1 else n)
    0 outcomes

let resume_hint = function
  | Some p when Sys.file_exists p -> "; resume with --resume " ^ p
  | Some _ | None -> ""
