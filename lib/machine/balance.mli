(** The machine-balance analysis of Section 5 (Equations 4–10).

    An algorithm with total work [|V|] FLOPs, a data-movement lower
    bound [LB] at some memory unit and an upper bound [UB] is compared
    against the machine-balance value [B / (|P| F)] (words/FLOP) of that
    unit:

    - Equation 7: if [LB * N / |V| > balance] the algorithm is
      {e bandwidth bound} at that level no matter how it is optimized.
    - Equation 8: if [UB * N / |V| < balance] there is at least one
      execution order that is {e not} constrained by that level's
      bandwidth.
    - Otherwise the bounds do not decide the question. *)

type verdict =
  | Bandwidth_bound
      (** Eq. 7 violated: even the lower bound exceeds what the machine
          can stream per FLOP. *)
  | Not_bandwidth_bound
      (** Eq. 8 violated: even the upper bound fits under the balance. *)
  | Indeterminate
      (** [lb_per_flop <= balance <= ub_per_flop]. *)

val verdict_to_string : verdict -> string

val lb_per_flop : lb_per_unit:float -> units:int -> work:float -> float
(** [LB * N / |V|], the left-hand side of Eq. 7. *)

val classify :
  lb_per_flop:float -> ub_per_flop:float -> balance:float -> verdict
(** Raises [Invalid_argument] when [lb_per_flop > ub_per_flop] (the
    bounds would be inconsistent). *)

val classify_lower : lb_per_flop:float -> balance:float -> verdict
(** Eq. 7 only: [Bandwidth_bound] or [Indeterminate]. *)

val classify_upper : ub_per_flop:float -> balance:float -> verdict
(** Eq. 8 only: [Not_bandwidth_bound] or [Indeterminate]. *)
