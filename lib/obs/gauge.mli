(** Last-value gauges (heap words, resident set size).

    Gauges measure {e state}, not work, so they are deliberately
    excluded from the cross-width determinism contract: two runs of the
    same workload may report different heap sizes.  Merging a worker
    snapshot takes the maximum, which is commutative, so merge order
    still cannot affect the result.

    The built-in [gc.*] gauges are refreshed automatically from
    [Gc.quick_stat] at every span close. *)

type t = Registry.gauge

val make : string -> t
(** Find or create the gauge registered under this name. *)

val set : t -> float -> unit
(** Record the current value.  No-op when instrumentation is
    disabled. *)

val get : t -> float
(** Last recorded value, [0.] if never set. *)
