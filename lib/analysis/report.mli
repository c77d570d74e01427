(** The experiment registry (see the experiment index in DESIGN.md).

    Each experiment is an {!Experiment.t}: named serializable parts
    plus a pure assembler from part payloads to a {!Doc.t}.  The CLI
    renders the document as text (byte-identical to the historical
    print-based output), JSON, or Markdown, and can shard the parts
    across the worker pool or reload them from a checkpoint. *)

val experiments : Experiment.t list
(** All experiments, in the canonical run order. *)

val find : string -> Experiment.t option

val names : (string * (unit -> bool)) list
(** Print-and-check thunks in registry order, for the bench harness. *)

val all : unit -> bool
(** Run every experiment in order; [true] iff all passed. *)
