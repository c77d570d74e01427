(** Binary min-heaps of [(priority, value)] pairs over integers.

    The Belady spill policy and Dinic's level scheduling use these.
    Duplicate priorities and values are allowed; ties break
    arbitrarily. *)

type t

val create : ?initial_capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> prio:int -> value:int -> unit
(** Insert a pair in O(log n). *)

val pop_min : t -> (int * int) option
(** Remove and return the pair with the smallest priority, or [None]
    when empty. *)

val clear : t -> unit
