(** The motivating composite example of Section 3:

    {v  A = p q^T;  B = r s^T;  C = A B;  sum = Σ C_ij  v}

    Summing the per-step lower bounds (outer products, the matrix
    multiplication's [n^3/(2 sqrt 2S)], the final reduction) wildly
    overstates the data movement of the whole: with [S = 4n + 4] words
    the composite runs in [4n + 1] I/Os when recomputation is allowed.
    This experiment regenerates that separation, and also shows what
    the RBW machinery certifies on the real (no-recomputation) CDAG. *)

type row = {
  n : int;
  s : int;                       (** [4n + 4] *)
  matmul_step_lb : float;        (** [n^3 / (2 sqrt(2S))] *)
  naive_sum_lb : float;
      (** per-step bounds added as if that were sound:
          [2(2n + n^2) + matmul + (n^2 + 1)] *)
  composite_upper_rb : float;    (** the paper's [4n + 1] *)
  separation : float;            (** [naive_sum_lb / composite_upper_rb] *)
  rbw_measured_ub : int option;
      (** Belady I/O on the actual composite CDAG (small [n] only) *)
  rbw_lb : int option;           (** certified wavefront bound on it *)
}

val sweep : ?ns:int list -> ?measure_limit:int -> unit -> row list
(** Defaults: [ns = [4; 8; 16; 32; 64]], CDAGs measured when
    [n <= measure_limit] (default 8). *)

val table : ?ns:int list -> ?measure_limit:int -> unit -> Dmc_util.Table.t

val row_to_json : row -> Dmc_util.Json.t

val row_of_json : Dmc_util.Json.t -> row

val parts : Experiment.part list
(** One part per default sweep size. *)

val doc_of_parts : Dmc_util.Json.t list -> Doc.t
