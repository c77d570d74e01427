(** First-class registry of the named CDAG generators.

    Every generator the toolkit knows about — the paper's kernels
    (matmul, FFT, stencils, solvers) plus the synthetic shapes — is one
    {!t}: a name, a positional integer-parameter schema, a one-line doc
    string and a builder.  The CLI ([dmc gen/bounds/game]), the fuzzer
    and the experiment suite all resolve workloads through this table,
    so adding a generator here makes it reachable everywhere. *)

type t = {
  name : string;
  params : string list;  (** positional parameter names, e.g. [["N"; "T"]] *)
  doc : string;          (** one-line description for listings *)
  build : int list -> Dmc_cdag.Cdag.t;
      (** partial: only defined for [List.length params] arguments —
          call through {!build} for arity checking *)
}

val all : t list
(** The registry, in documentation order. *)

val names : string list

val find : string -> t option

val signature : t -> string
(** ["name:P1,P2"] — the spec syntax for this workload. *)

val spec_doc : unit -> string
(** The one-line CLI help string listing every workload signature. *)

val build : string -> int list -> (Dmc_cdag.Cdag.t, string) result
(** Arity-checked build.  Errors name the expected signature, or list
    the known generators when the name is unknown. *)

val parse : string -> (Dmc_cdag.Cdag.t, string) result
(** Parse a ["name:1,2"] spec and build it.  Non-integer parameters,
    unknown names and arity mismatches all produce messages that state
    the expected signature. *)

val build_exn : string -> int list -> Dmc_cdag.Cdag.t
(** {!build}, raising [Failure] on error. *)

val parse_exn : string -> Dmc_cdag.Cdag.t
(** {!parse}, raising [Failure] on error. *)

(** {1 Implicit registry}

    The regular generator families are also available in implicit form
    (see {!Implicit_gen}): same specs, same graphs, no materialization.
    Trailing parameters may be omitted when the entry declares
    defaults — e.g. ["jacobi1d:1000000000"] means T = 8 — so
    billion-point specs read naturally on the CLI. *)

type implicit_w = {
  iname : string;
  iparams : string list;
  idefaults : int list;
      (** defaults for a suffix of [iparams]; omitted trailing
          arguments are filled from here *)
  idoc : string;
  ibuild : int list -> Dmc_cdag.Implicit.t;  (** full-arity only *)
}

val find_implicit : string -> implicit_w option

val implicit_signature : implicit_w -> string

val build_implicit : string -> int list -> (Dmc_cdag.Implicit.t, string) result
(** Arity-checked build with trailing-default padding; generator size
    errors ([Invalid_argument]) are returned as [Error]. *)

val parse_implicit : string -> (Dmc_cdag.Implicit.t, string) result
(** Parse a ["name:1,2"] spec against the implicit registry. *)
