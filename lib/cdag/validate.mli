(** Well-formedness checks for CDAGs under the two conventions used in
    the paper. *)

type violation =
  | Source_not_input of Cdag.vertex
      (** a vertex without predecessors is not tagged as an input *)
  | Sink_not_output of Cdag.vertex
      (** a vertex without successors is not tagged as an output *)
  | Input_has_pred of Cdag.vertex
      (** an input vertex has an incoming edge (forbidden by Def. 1) *)

val rbw : Cdag.t -> violation list
(** Violations under the flexible RBW convention (Definition 4): only
    [Input_has_pred] remains an error — sources may be untagged (they
    fire freely with R3) and sinks may be untagged (no final blue pebble
    required). *)

val is_hong_kung : Cdag.t -> bool

val is_rbw : Cdag.t -> bool
