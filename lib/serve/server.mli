(** The [dmc serve] daemon: a crash-tolerant bound-query service.

    One event loop multiplexes three descriptor families with a single
    [select]: the Unix-domain listen socket, the open client
    connections, and the worker pipes of an embedded unordered
    {!Dmc_runtime.Pool} (via {!Dmc_runtime.Pool.watch_fds} /
    [step ~max_wait:0.]).  Queries are {!Dmc_core.Engine_job}s; their
    rows come back from supervised forked workers, so nothing a bound
    computation does — blow the stack, hang, segfault — can take the
    daemon down.

    Robustness properties, each covered by a test or the CI smoke:
    every connection read runs under a deadline; admission is bounded
    ([Rejected Overloaded] past [max_inflight], nothing computed);
    malformed, oversized, truncated and stalled requests get typed
    {!Protocol.reject} replies, never a crashed daemon or a silent
    close; results are cached content-addressed ({!Cache_key}) in a
    write-through persisted LRU ({!Result_cache}), so a [kill -9]
    loses at most in-flight work; and a drain (SIGTERM, SIGINT or a
    [Shutdown] request) finishes in-flight queries, answers their
    clients, persists the cache and returns — the CLI wrapper turns
    that into exit 143/130.

    Chaos mode: {!Dmc_runtime.Fault} server kinds ([drop], [truncate],
    [slow]) fire by 1-based {e accepted-connection} index, while worker
    kinds pass through to the pool — one [--fault] spec exercises both
    layers. *)

type config = {
  socket_path : string;  (** Unix-domain socket path; created on start *)
  cache_dir : string option;  (** persist the result cache here *)
  cache_entries : int;  (** LRU capacity of the result cache *)
  max_inflight : int;
      (** admission bound: queries submitted to the pool but not yet
          answered; beyond it new queries get [Rejected Overloaded] *)
  read_timeout : float;
      (** per-connection deadline, accept to complete request frame *)
  jobs : int;  (** worker processes for the embedded pool *)
  job_timeout : float option;  (** hard per-attempt compute deadline *)
  max_retries : int;
  faults : Dmc_runtime.Fault.t list;
  should_drain : unit -> bool;
      (** polled every loop iteration; [true] begins a graceful drain
          (the CLI wires this to its SIGTERM/SIGINT flag) *)
  on_ready : (unit -> unit) option;
      (** called once, after the socket is listening *)
}

val default : config
(** [socket_path = "dmc.sock"], no cache dir, 1024 entries, 64
    in-flight, 10 s read timeout, 1 job, no compute timeout, 2
    retries, no faults, never drains. *)

val serve : config -> (unit, string) result
(** Run until drained.  [Ok ()] after a graceful drain (in-flight
    queries answered, cache persisted, socket unlinked); [Error] only
    for startup failures — once listening, per-connection and
    per-query failures are typed replies, and the loop survives them
    all. *)
