(** Minimal JSON: values, printing, parsing.

    The certificate exporter ({!Search_covering.Certificate_io}, if you
    are reading this from the covering layer) emits machine-readable
    refutation certificates and re-checks them independently; that needs
    a JSON codec, and the project is dependency-sealed, so a small
    well-tested one is vendored here.  Numbers are floats (JSON has only
    one number type); strings are UTF-8, with [\uXXXX] escapes decoded on
    parse (basic multilingual plane). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialise; [pretty] (default false) adds newlines and 2-space
    indentation.  Floats that are integral print without a fractional
    part; non-finite floats are not representable and raise
    [Invalid_argument]. *)

val number_to_string : float -> string
(** How {!to_string} prints a [Number]: integral values below [1e15] in
    magnitude without a fractional part (["-0"] for [-0.]), others as
    {!Xfloat.to_string}.
    @raise Invalid_argument on a non-finite float. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document (trailing whitespace allowed).  The
    error string includes the offending position.  A [\u] escape takes
    exactly four hex digits. *)

val member : string -> t -> t option
(** Field lookup in an [Assoc]; [None] otherwise or when absent. *)

val to_float : t -> float option
val to_int : t -> int option
(** [Number] fields that are integral and in [[-2^62, 2^62)], the range
    of a 63-bit [int]; [None] for any other value. *)

val to_list : t -> t list option
val to_string_value : t -> string option
val to_bool : t -> bool option
