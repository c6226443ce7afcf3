(** Minimal CSV emission for the experiment series.

    The figure-shaped experiments (F1–F5) also write their raw series to
    disk so they can be re-plotted outside the harness.  RFC-4180-ish:
    fields containing commas, quotes or newlines are quoted, quotes
    doubled. *)

val escape_field : string -> string
(** The quoted/escaped form of one field. *)

val write : path:string -> header:string list -> rows:string list list -> unit
(** Writes header + rows to [path], creating parent directories as
    needed (one level).  Every row must match the header arity.
    @raise Invalid_argument on an arity mismatch. *)

val float_cell : float -> string
(** {!Xfloat.to_string}: [%g] when it round-trips, else [%.17g]. *)
