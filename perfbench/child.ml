(* Child-process accounting shared by the benchmark runner and its
   spawner: the C stubs, and the requests and replies the two exchange
   (Marshal'd over a pipe pair; both are built from this one module). *)

type usage = {
  code : int;  (** exit code, or minus the signal number *)
  user : float;
  sys : float;
  maxrss_kib : int;
}

external wait4 : int -> bool -> int * int * float * float * int = "bench_wait4"
external clock_ns : unit -> int = "bench_clock_ns"
external set_subreaper : unit -> bool = "bench_set_subreaper"
external allowed_cpus : unit -> int array = "bench_allowed_cpus"
external set_cpus : int array -> bool = "bench_set_cpus"

let now () = float_of_int (clock_ns ()) *. 1e-9

let usage_of (_, code, user, sys, maxrss_kib) = { code; user; sys; maxrss_kib }

(* CPU seconds of every child this process has reaped, as the kernel
   counts them. *)
let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

type request =
  | Run of { argv : string array; out : string; err : string }
      (** start [argv] with stdout to the file [out] and stderr to [err],
          and wait for it *)
  | Spawn of { argv : string array; out : string; err : string }
      (** the same, without waiting *)
  | Reap of { pid : int; grace : float }
      (** wait up to [grace] seconds for a spawned child, then kill it *)

type outcome =
  | Ran of { wall : float; usage : usage }
      (** [wall] runs from just before the spawn to just after the reap *)
  | Spawned of int
  | Reaped of { usage : usage; killed : bool }
  | Refused of string  (** the spawn failed *)

type reply = { outcome : outcome; children_cpu : float  (** the spawner's [children_cpu] *) }

(* The runner's end of a spawner: its pid and the pipe pair. *)
type spawner = { pid : int; requests : out_channel; replies : in_channel }

(* Start the spawner executable [exe] (spawner.ml).  Children it starts
   inherit this process's CPU set as of now. *)
let start_spawner exe =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close req_r;
        Unix.close rep_w)
      (fun () -> Unix.create_process exe [| exe |] req_r rep_w Unix.stderr)
  in
  { pid; requests = Unix.out_channel_of_descr req_w; replies = Unix.in_channel_of_descr rep_r }

let call s (req : request) : reply =
  Marshal.to_channel s.requests req [];
  flush s.requests;
  Marshal.from_channel s.replies

(* Closing its input stops the spawner; it kills and reaps what it
   still runs, then exits, and is reaped here. *)
let stop_spawner s =
  close_out_noerr s.requests;
  (try ignore (wait4 s.pid false) with Unix.Unix_error _ -> ());
  close_in_noerr s.replies
