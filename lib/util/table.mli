(** Plain-text table rendering for the experiment reports.

    Produces aligned, `|`-separated tables matching what the paper's
    evaluation section reports, suitable for terminals and log files. *)

type align = Left | Right

type t

val create : headers:string list -> t
(** New table; column count is fixed by [headers]. *)

val set_align : t -> align list -> unit
(** Per-column alignment; defaults to [Left] everywhere.  Lists shorter
    than the column count leave the remaining columns unchanged. *)

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width differs from the header
    width. *)

val add_rule : t -> unit
(** Insert a horizontal rule between the rows added so far and the
    next ones. *)

val render : t -> string
(** Full table as a string, with a trailing newline. *)

val print : t -> unit
(** [render] to stdout. *)

(** Structural accessors, so a table can be serialized (the report IR
    stores tables as data and must rebuild them byte-identically). *)

val headers : t -> string list

val aligns : t -> align list
(** One entry per column, in column order. *)

val body : t -> [ `Row of string list | `Rule ] list
(** Rows and rules in insertion order. *)

(** Formatting helpers shared by the report code. *)

val fmt_float : ?digits:int -> float -> string
(** Fixed-point with [digits] decimals (default 4). *)

val fmt_int : int -> string
(** Decimal with thin thousands separators (e.g. ["12_345"]). *)
