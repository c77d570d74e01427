(** Growable vectors of unboxed integers.

    The CDAG builder accumulates edges into these before freezing to
    CSR arrays; they avoid both list cells and boxed array churn. *)

type t

val create : ?initial_capacity:int -> unit -> t

val length : t -> int

val get : t -> int -> int
(** Raises [Invalid_argument] when the index is out of bounds. *)

val set : t -> int -> int -> unit

val push : t -> int -> unit
(** Append one element, growing the backing store as needed. *)

val pop : t -> int
(** Remove and return the last element.  Raises [Invalid_argument] on an
    empty vector. *)

val clear : t -> unit
(** Reset length to 0 without shrinking the backing store. *)

val to_array : t -> int array
(** Fresh array of the current contents. *)

val iter : (int -> unit) -> t -> unit

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val sort : t -> unit
(** In-place ascending sort of the live prefix. *)
