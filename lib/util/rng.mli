(** Deterministic splittable PRNG (SplitMix64).

    Every randomized component in the repository (random CDAG
    generators, sampled wavefront heuristics, property-test fixtures)
    draws from this generator so that runs are reproducible from a
    single seed, independent of the OCaml stdlib [Random] state. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val split : t -> t
(** Independent child stream; advances the parent. *)

val next : t -> int
(** Uniform 62-bit non-negative integer. *)

val int : t -> int -> int
(** [int g n] is uniform in [0 .. n-1]; requires [n > 0]. *)

val float : t -> float -> float
(** [float g x] is uniform in [0, x). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
