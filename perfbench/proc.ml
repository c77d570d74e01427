(* Running the real [dmc] binary and accounting for every child.

   Commands are started by the spawner (spawner.ml says why), one
   process started on first use and stopped when the runner exits. *)

type usage = Perfbench.Child.usage = {
  code : int;  (** exit code, or minus the signal number *)
  user : float;
  sys : float;
  maxrss_kib : int;
}

module C = Perfbench.Child

let now = C.now
let set_subreaper = C.set_subreaper
let allowed_cpus = C.allowed_cpus
let set_cpus = C.set_cpus

(* Pin this process, and the children started afterwards (the spawner
   included, if it is not running yet), to the lowest CPU it may run
   on.  That CPU, or -1 where it cannot. *)
let pin_first_cpu () =
  match allowed_cpus () with
  | [||] -> -1
  | cpus -> if set_cpus [| cpus.(0) |] then cpus.(0) else -1

let spawner_exe = "_build/default/perfbench/spawner.exe"

(* CPU seconds of every child reaped, here or by the spawner, for the
   once-a-run cross-check against the kernel's own children totals. *)
let reaped_cpu = ref 0.
let reaped = ref 0
let spawner_children_cpu = ref 0.

let account (u : usage) =
  reaped_cpu := !reaped_cpu +. u.user +. u.sys;
  incr reaped;
  u

let reap pid = account (C.usage_of (C.wait4 pid false))

let spawner = ref None

let the_spawner () =
  match !spawner with
  | Some s -> s
  | None ->
      let s = C.start_spawner spawner_exe in
      spawner := Some s;
      at_exit (fun () ->
          spawner := None;
          C.stop_spawner s);
      s

let spawner_pid () = Option.map (fun (s : C.spawner) -> s.pid) !spawner

let call req =
  let r = C.call (the_spawner ()) req in
  spawner_children_cpu := r.children_cpu;
  match r.outcome with
  | C.Refused m -> failwith ("spawning " ^ m)
  | o -> o

let unexpected () = failwith "spawner: reply does not match the request"

type run = { out : string; wall : float; usage : usage }

(* Run [argv] to completion with stdout to the file [out] and stderr to
   the file [err]; the result carries what it wrote to stdout. *)
let run ~out ~err argv =
  match call (C.Run { argv; out; err }) with
  | C.Ran { wall; usage } ->
      { out = In_channel.with_open_bin out In_channel.input_all; wall; usage = account usage }
  | _ -> unexpected ()

(* Start [argv] with stdout to the file [out] and stderr to [err]. *)
let spawn ~out ~err argv =
  match call (C.Spawn { argv; out; err }) with C.Spawned pid -> pid | _ -> unexpected ()

(* Wait up to [grace] seconds for a spawned [pid]; past it the child is
   killed and reaped, and the result says it had to be. *)
let reap_within ~grace pid =
  match call (C.Reap { pid; grace }) with
  | C.Reaped { usage; killed } -> (account usage, killed)
  | _ -> unexpected ()

let children_cpu () = C.children_cpu () +. !spawner_children_cpu

(* The kernel's children totals and the sum over [wait4] must agree: a
   gap means a child was reaped behind the benchmark's back, and its
   cost is missing from the figures.  Tolerance: one clock tick per
   child plus one percent. *)
let cross_check ~since =
  let kernel = children_cpu () -. since in
  let ours = !reaped_cpu in
  let tol = (0.01 *. float_of_int (!reaped + 1)) +. (0.01 *. Float.max kernel ours) in
  if Float.abs (kernel -. ours) <= tol then Ok ()
  else
    Error
      (Printf.sprintf
         "children CPU: wait4 sum %.3f s but Unix.times reports %.3f s" ours kernel)
