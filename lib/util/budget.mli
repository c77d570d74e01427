(** Resource governance for the exhaustive engines.

    Every exponential search in the toolkit (optimal pebble games,
    S-span, S-partition enumeration, repeated max-flows) runs under a
    {!t}: a guard combining a wall-clock deadline, a search-node
    budget, and a cooperative cancellation hook.  Engines call {!tick}
    from their inner loops; when a resource runs out the tick raises
    {!Exhausted}, which the result-typed wrappers in
    [Dmc_core.Bounds.Engine] turn into an [Error].

    The same module owns the shared failure taxonomy, so that a
    timeout, an exhausted node budget, a graph that is structurally too
    large, invalid input, and a broken internal invariant are
    distinguishable everywhere — in the CLI status columns, in the
    checkpoints, and in the fuzzer's reproducer files. *)

type failure =
  | Timeout  (** the wall-clock deadline passed mid-search *)
  | Budget_exhausted  (** the node/state budget ran out *)
  | Cancelled  (** the cooperative cancellation hook returned [true] *)
  | Too_large of string
      (** the instance is structurally beyond the engine's encodable
          range (e.g. more than 20 vertices for the packed-int games) *)
  | Invalid_input of string
      (** a precondition on the input failed (bad [s], convention
          violation, malformed file) *)
  | Internal of string
      (** an engine invariant broke — always a bug, never a resource
          condition *)

val failure_to_string : failure -> string
(** Short machine-friendly rendering: ["timeout"],
    ["budget-exhausted"], ["cancelled"], ["too-large: ..."],
    ["invalid-input: ..."], ["internal: ..."]. *)

val failure_of_string : string -> failure option
(** Exact inverse of {!failure_to_string}, for failures that crossed a
    process boundary (worker-pool result frames, checkpoint files).
    [None] on an unrecognized rendering. *)

exception Exhausted of failure
(** Raised by {!tick} ({!Timeout}, {!Budget_exhausted} or
    {!Cancelled} only). *)

exception Internal_error of { where : string; details : string }
(** An invariant violation with context (which engine, graph size,
    step...), distinguishable from resource exhaustion.  Raise it with
    {!internal_error}. *)

val internal_error : where:string -> ('a, unit, string, 'b) format4 -> 'a
(** [internal_error ~where fmt ...] raises {!Internal_error} with the
    formatted details. *)

val now : unit -> float
(** The wall clock the guard reads ([Unix.gettimeofday]); exposed so
    callers timing their own ladder rungs agree with the deadlines. *)

type t

val create :
  ?deadline:float -> ?nodes:int -> ?cancel:(unit -> bool) -> unit -> t
(** A fresh guard.  [deadline] is in {e seconds from now} (wall
    clock); [nodes] caps the number of {!tick} calls; [cancel] is
    polled at the same cadence as the clock.  Omitted components are
    unlimited. *)

val tick : t -> unit
(** Account one unit of search work.  Raises {!Exhausted} when the
    node budget is spent, and — every few hundred ticks, to keep the
    fast path allocation-free — when the deadline has passed or
    [cancel] returns [true]. *)

val tick_n : t -> int -> unit
(** [tick_n b k] accounts [k] units at once — for engine steps whose
    cost is proportional to the graph size (a whole partition-validity
    check, say), so the deadline overshoot stays proportional to wall
    time rather than to step count.  [k <= 0] is a no-op. *)

val check : t -> failure option
(** Non-raising probe of the same conditions (checks the clock
    unconditionally). *)

val spent : t -> int
(** Ticks consumed so far. *)

val elapsed : t -> float
(** Seconds since {!create}. *)

val guard : ?budget:t -> (unit -> 'a) -> ('a, failure) result
(** Run a thunk, catching {!Exhausted} and {!Internal_error} (other
    exceptions propagate).  [budget] is only probed once up front, so
    an already-exhausted guard short-circuits. *)
