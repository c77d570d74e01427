(** The batch runner the drivers share.

    [dmc bounds], [dmc bounds --stream], [dmc experiment], [dmc sweep]
    and [bin/fuzz] each hand over a job list, a worker and a commit
    hook.  This module owns the rest: the interrupt flag and its exit
    code, the {!Pool.config} built from the run-control flags, the stop
    and drain hooks, the [Cancelled] accounting, the progress line, the
    resume hint, and the one rule ({!supervised}) that decides whether
    a batch needs the supervised pool at all. *)

val install_interrupt_handlers : unit -> unit
(** The first SIGINT/SIGTERM sets the flag {!batch} polls as its stop
    hook; a second one exits immediately with the signal's code. *)

val interrupted : unit -> int option
(** [Some code] once a signal arrived: 130 for SIGINT, 143 for
    SIGTERM — the code to exit with after the last checkpoint. *)

type settings = {
  jobs : int;  (** [--jobs]: max concurrent workers *)
  job_timeout : float option;  (** [--job-timeout]: hard per-attempt deadline *)
  retries : int;  (** [--retries]: extra attempts for transient verdicts *)
  faults : Fault.t list;  (** [--fault] plus [$DMC_FAULT] *)
  progress : bool;  (** [--progress]: live stderr line *)
  postmortem : string option;  (** [--postmortem]: flight-recorder dumps *)
  observed : bool;
      (** [--trace]/[--profile]: every width must emit the same
          [pool.*] counter set *)
}

val default : settings
(** [jobs = 1], [retries = 2], nothing else set: an in-process batch. *)

val faults : string option -> Fault.t list
(** The faults of [$DMC_FAULT] followed by those of a [--fault] spec.
    Raises [Failure] on a malformed spec. *)

val supervised : ?hosts:Host.t list -> settings -> bool
(** The backend rule: the supervised {!Pool} runs a batch when
    anything needs a supervisor — [jobs > 1], a job timeout, faults, an
    observed run, progress, a postmortem directory or explicit [hosts];
    otherwise the jobs run in the caller.  It chooses only where the
    worker runs, never what a job computes. *)

val batch :
  ?hosts:Host.t list ->
  ?encode:('a -> Dmc_util.Json.t) ->
  ?deadline:float ->
  settings ->
  worker:(int -> 'a -> (Dmc_util.Json.t, Dmc_util.Budget.failure) result) ->
  ?on_result:(int -> Pool.outcome -> unit) ->
  'a list ->
  Pool.outcome array
(** One outcome per job, committed through [on_result] in submission
    order.  Supervised, this is {!Pool.run} ([hosts]/[encode] as
    there).  In the caller, each job gets one attempt, its exceptions
    mapped by {!Transport.guard} and its payload passed on unencoded.

    Both backends stop alike: once {!interrupted} is set, or once the
    absolute drain [deadline] has passed, no new job starts and every
    job past the committed prefix ends [Engine_failure Cancelled]
    without an [on_result] call, so the non-[Cancelled] outcomes are
    exactly the committed ones.  A batch started inside an in-process
    job is nested and ignores the interrupt: the outer batch stops
    once that job returns. *)

val cancelled : Pool.outcome array -> int
(** The [Cancelled] outcomes: non-zero iff the batch stopped early. *)

val resume_hint : string option -> string
(** ["; resume with --resume P"] when the checkpoint [P] exists, else
    [""] — a run stopped before its first commit never wrote one. *)
