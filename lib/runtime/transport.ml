module Json = Dmc_util.Json
module Budget = Dmc_util.Budget
module Ipc = Dmc_util.Ipc

type t = Fork | Command of { argv : string array }

type proc = { pid : int; fd : Unix.file_descr }

let name = function
  | Fork -> "fork"
  | Command { argv } -> if Array.length argv > 0 then argv.(0) else "command"

let is_remote = function Fork -> false | Command _ -> true

let call_version = 1

(* The trace context a supervisor threads through a remote call: which
   run, which host lane, which lease.  Pure telemetry — absent on old
   supervisors, ignored by old workers, and never consulted by
   classification — so it rides v1 envelopes as optional fields. *)
type trace = { run : string; host : string; lease : string }

let trace_json tr =
  Json.Obj
    [
      ("run", Json.String tr.run);
      ("host", Json.String tr.host);
      ("lease", Json.String tr.lease);
    ]

type call = {
  job : Json.t;
  hb : bool;
  obs : bool;
  trace : trace option;
  fault : Fault.kind option;
}

let envelope ~hb ?(obs = false) ?trace ~fault payload =
  Json.Obj
    ([
       ("kind", Json.String "dmc-worker-call");
       ("v", Json.Int call_version);
       ("job", payload);
       ("hb", Json.Bool hb);
     ]
    @ (if obs then [ ("obs", Json.Bool true) ] else [])
    @ (match trace with None -> [] | Some tr -> [ ("trace", trace_json tr) ])
    @ [
        ( "fault",
          match fault with
          | None -> Json.Null
          | Some k -> Json.String (Fault.kind_to_string k) );
      ])

let parse_envelope json =
  let str field = Option.bind (Json.mem json field) Json.as_string in
  match (str "kind", Option.bind (Json.mem json "v") Json.as_int) with
  | Some "dmc-worker-call", Some v when v = call_version -> (
      match Json.mem json "job" with
      | None -> Error "dmc-worker-call has no job"
      | Some job ->
          let flag field =
            match Option.bind (Json.mem json field) Json.as_bool with
            | Some b -> b
            | None -> false
          in
          let trace =
            match Json.mem json "trace" with
            | Some tr -> (
                let f field = Option.bind (Json.mem tr field) Json.as_string in
                match (f "run", f "host", f "lease") with
                | Some run, Some host, Some lease -> Some { run; host; lease }
                | _ -> None)
            | None -> None
          in
          let fault =
            Option.bind (str "fault") Fault.kind_of_string
            |> Option.map (fun k -> if Fault.is_worker_kind k then Some k else None)
            |> Option.join
          in
          Ok { job; hb = flag "hb"; obs = flag "obs"; trace; fault })
  | Some "dmc-worker-call", Some v ->
      Error (Printf.sprintf "dmc-worker-call v%d, this build speaks v%d" v call_version)
  | _ -> Error "not a dmc-worker-call frame"

(* A dead worker's stdin pipe raises EPIPE on write; without this the
   default SIGPIPE disposition would kill the supervisor instead.
   Process-global, forced once on the first remote spawn. *)
let ignore_sigpipe =
  lazy (Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

(* The worker reads its call frame before doing anything else, so this
   write only ever blocks when the process is already dead or wedged —
   bound it so a broken host cannot stall dispatch.  On failure we
   simply close: classification will report whatever the worker does
   (or fails to do) next. *)
let write_deadline = 10.

let spawn_command ~argv ~envelope =
  Lazy.force ignore_sigpipe;
  (* cloexec everywhere: create_process dup2s in_r/out_w onto the
     child's stdin/stdout (clearing the flag on those), and every
     other end closes at exec — without this the child inherits the
     write end of its own stdin pipe and a worker that reads stdin to
     EOF deadlocks against itself. *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    try Unix.create_process argv.(0) argv in_r out_w Unix.stderr
    with Unix.Unix_error _ ->
      (* create_process only raises before the fork (e.g. EMFILE);
         exec failures surface as the child's exit 127.  Mimic that so
         the caller sees one failure shape. *)
      -1
  in
  Unix.close in_r;
  Unix.close out_w;
  if pid < 0 then begin
    (try Unix.close in_w with Unix.Unix_error _ -> ());
    (* a closed read end: classification reports Closed immediately *)
    (try Unix.close out_r with Unix.Unix_error _ -> ());
    let null_r, null_w = Unix.pipe ~cloexec:true () in
    Unix.close null_w;
    { pid = 0; fd = null_r }
  end
  else begin
    let frame = Ipc.encode_frame envelope in
    let total = String.length frame in
    let deadline = Unix.gettimeofday () +. write_deadline in
    Unix.set_nonblock in_w;
    let rec push off =
      if off < total then
        match Unix.write_substring in_w frame off (total - off) with
        | n -> push (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            let remaining = deadline -. Unix.gettimeofday () in
            if remaining > 0. then begin
              (match Unix.select [] [ in_w ] [] remaining with
              | _ -> ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
              push off
            end
        | exception Unix.Unix_error _ -> ()
    in
    push 0;
    (try Unix.close in_w with Unix.Unix_error _ -> ());
    { pid; fd = out_r }
  end

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

let guard run =
  try run () with
  | Budget.Exhausted f -> Error f
  | Budget.Internal_error { where; details } ->
      Error (Budget.Internal (where ^ ": " ^ details))
  | Stack_overflow ->
      Error (Budget.Too_large "worker recursion exceeded the OCaml stack")
  | e -> Error (Budget.Internal ("worker raised: " ^ Printexc.to_string e))

let attempt_body ~fault ~hb ?(obs = false) ?trace ~output run =
  match fault with
  | Some Fault.Hang ->
      (* Non-cooperative by construction: only the supervisor's
         SIGKILL (or the transport dying under it) ends this attempt. *)
      while true do
        Unix.sleepf 3600.
      done
  | Some Fault.Abort ->
      Sys.set_signal Sys.sigabrt Sys.Signal_default;
      Unix.kill (Unix.getpid ()) Sys.sigabrt
  | Some Fault.Garbage -> (
      try ignore (Unix.write_substring output "*** not an ipc frame ***" 0 24)
      with Unix.Unix_error _ -> ())
  | Some (Fault.Drop | Fault.Truncate | Fault.Slow) | None ->
      (* [obs] is the supervisor saying "I am profiling — snapshot even
         without heartbeats"; a plain [dmc sweep --trace] over a
         command fleet sets it so remote spans and counters come home. *)
      if hb || obs then Dmc_obs.Registry.set_enabled true;
      (if hb then begin
         (* Heartbeats ride the result channel as extra frames ahead of
            the result: span closes in the engines become rate-limited
            phase ticks.  Spans only record when the registry is on, so
            heartbeating implies an enabled registry; the supervisor
            ignores the resulting snapshot unless it is profiling. *)
         let ctx =
           match trace with
           | None -> []
           | Some tr ->
               [ ("host", Json.String tr.host); ("lease", Json.String tr.lease) ]
         in
         let last_hb = ref neg_infinity in
         let send phase =
           let t = Unix.gettimeofday () in
           if t -. !last_hb >= 0.15 then begin
             last_hb := t;
             try
               Ipc.write_frame output
                 (Json.Obj
                    [ ("hb", Json.Obj (("phase", Json.String phase) :: ctx)) ])
             with Unix.Unix_error _ -> ()
           end
         in
         send "start";
         Dmc_obs.Registry.on_span_close := Some send
       end);
      let frame =
        match guard run with
        | Ok v -> Json.Obj [ ("ok", v) ]
        | Error f -> Json.Obj [ ("err", Json.String (Budget.failure_to_string f)) ]
      in
      let frame =
        (* The span/counter snapshot rides in the same result frame; the
           supervisor merges it under this job's tid.  Engine failures
           keep their snapshot too — failed rungs must still appear in
           the trace.  The trace context is echoed back so the frame is
           self-describing to anything recording the wire. *)
        match frame with
        | Json.Obj fields when Dmc_obs.Registry.is_enabled () ->
            let ctx =
              match trace with
              | None -> []
              | Some tr -> [ ("trace", trace_json tr) ]
            in
            Json.Obj
              (fields @ (("obs", Dmc_obs.Registry.snapshot_json ()) :: ctx))
        | other -> other
      in
      (try Ipc.write_frame output frame with Unix.Unix_error _ -> ())

let run_call ~input ~output ~dispatch () =
  Lazy.force ignore_sigpipe;
  let refuse msg =
    (try
       Ipc.write_frame output
         (Json.Obj
            [
              ( "err",
                Json.String
                  (Budget.failure_to_string (Budget.Invalid_input msg)) );
            ])
     with Unix.Unix_error _ -> ());
    1
  in
  match Ipc.read_frame input with
  | Error e -> refuse ("bad worker call: " ^ Ipc.read_error_to_string e)
  | Ok json -> (
      match parse_envelope json with
      | Error msg -> refuse msg
      | Ok { job; hb; obs; trace; fault } ->
          attempt_body ~fault ~hb ~obs ?trace ~output (fun () -> dispatch job);
          0)
