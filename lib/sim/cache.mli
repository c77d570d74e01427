(** A word-granularity LRU cache over integer keys.

    This is the building block of the hierarchy simulator: each storage
    level is one of these.  Entries carry a dirty bit so write-back
    traffic can be counted. *)

type t

type eviction = { key : int; dirty : bool }

val create : capacity:int -> t
(** [capacity] in words; must be positive. *)

val capacity : t -> int

val size : t -> int

val mem : t -> int -> bool

val touch : t -> int -> bool
(** Move a key to most-recently-used position; returns whether it was
    present (a miss does not insert). *)

val insert : t -> ?dirty:bool -> int -> eviction option
(** Insert (or refresh) a key as most-recently-used, returning the LRU
    victim when the cache was full.  Refreshing an existing key never
    evicts; [dirty] ORs into the existing dirty bit. *)

val remove : t -> int -> eviction option
(** Remove a key, returning its record when present. *)

val iter : (int -> dirty:bool -> unit) -> t -> unit
(** Iterate entries from least- to most-recently-used. *)
