(** The computing systems of Table 1 of the paper, plus a few
    parameterized reference systems for the what-if analyses.

    Balance parameters are stored exactly as the paper reports them
    (words/FLOP); derived quantities (cache sizes in words) use 8-byte
    words as the paper does. *)

type t = {
  name : string;
  nodes : int;                  (** [N_nodes] *)
  cores_per_node : int;
  memory_gb_per_node : float;
  cache_mb : float;             (** shared L2/L3 capacity per node, MB *)
  vertical_balance : float;
      (** words/FLOP between DRAM and the shared cache (Table 1) *)
  horizontal_balance : float;
      (** words/FLOP across the interconnect (Table 1) *)
}

val bgq : t
(** IBM BG/Q: 2048 nodes, 16 GB, 32 MB cache, 0.052 / 0.049. *)

val table1 : t list
(** The machines of Table 1, in paper order. *)

val extended : (int * t) list
(** A balance-trend timeline: the Table-1 systems plus later machines
    with {e estimated} balances derived from public peak numbers (HBM
    bandwidth / peak FP64, NIC bandwidth / peak FP64; 8-byte words).
    These rows are our addition, not the paper's — they extend its
    motivating observation that balance keeps falling.  The [int] is
    the system's deployment year. *)

val cache_words : t -> int
(** Shared cache capacity in 8-byte words. *)

val hierarchy : t -> s1:int -> Hierarchy.t
(** The three-level {!Hierarchy.t} of the machine (registers of [s1]
    words per core, shared cache, node memory). *)

val pp : Format.formatter -> t -> unit

val find : string -> t option
(** Case-insensitive lookup among {!table1}. *)
