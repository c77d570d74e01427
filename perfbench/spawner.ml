(* The benchmark's spawner: it starts dmc processes on the runner's
   behalf and accounts for each with wait4.

   On Linux a child's peak resident set (ru_maxrss) starts at its
   parent's resident set at the spawn: fork and vfork both carry the
   parent's memory until exec, and exec keeps the high-water mark.  The
   runner holds every reply and its in-process references, so its
   resident set grows during a run, and children it spawned itself
   would report that growth as their own peak.  So the runner spawns
   nothing itself; it sends every command here, to a process that
   allocates next to nothing.

   Requests and replies are Marshal'd [Child] values on stdin and
   stdout.  End of input stops the spawner, after it has killed and
   reaped every child it still has. *)

open Perfbench.Child

let live : (int, unit) Hashtbl.t = Hashtbl.create 4
let dev_null = lazy (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)

let open_log path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

let start ~argv ~out ~err =
  let o = open_log out in
  Fun.protect
    ~finally:(fun () -> Unix.close o)
    (fun () ->
      let e = open_log err in
      Fun.protect
        ~finally:(fun () -> Unix.close e)
        (fun () ->
          let pid = Unix.create_process argv.(0) argv (Lazy.force dev_null) o e in
          Hashtbl.replace live pid ();
          pid))

let reap ~nohang pid =
  match wait4 pid nohang with
  | 0, _, _, _, _ -> None
  | r ->
      Hashtbl.remove live pid;
      Some (usage_of r)

(* Wait up to [grace] seconds for [pid]; past it the child is killed and
   reaped, and the reply says it had to be. *)
let reap_within ~grace pid =
  let deadline = now () +. grace in
  let rec go () =
    match reap ~nohang:true pid with
    | Some u -> (u, false)
    | None when now () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (Option.get (reap ~nohang:false pid), true)
    | None ->
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let handle = function
  | Run { argv; out; err } ->
      let t0 = now () in
      let pid = start ~argv ~out ~err in
      let usage = Option.get (reap ~nohang:false pid) in
      Ran { wall = now () -. t0; usage }
  | Spawn { argv; out; err } -> Spawned (start ~argv ~out ~err)
  | Reap { pid; grace } ->
      let usage, killed = reap_within ~grace pid in
      Reaped { usage; killed }

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  let rec loop () =
    match (Marshal.from_channel stdin : request) with
    | exception (End_of_file | Failure _) -> ()
    | req -> (
        let outcome =
          try handle req
          with Unix.Unix_error (e, f, _) -> Refused (f ^ ": " ^ Unix.error_message e)
        in
        match
          Marshal.to_channel stdout { outcome; children_cpu = children_cpu () } [];
          flush stdout
        with
        | () -> loop ()
        | exception Sys_error _ -> ())
  in
  loop ();
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait4 pid false))
    (Hashtbl.copy live)
