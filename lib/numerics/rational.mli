(** Exact rationals over native (63-bit) integers.

    The appendix of the paper reduces the fractional one-ray retrieval
    problem (real weight η) to the integer ORC covering problem through a
    sequence of rational approximations [q_i / k_i ↓ η].  This module
    builds that sequence exactly: every value is normalised by the gcd
    and keeps its denominator positive.

    Overflow policy: a cross-multiplication that would overflow the
    63-bit range raises {!Overflow} rather than silently wrapping.  The
    approximation sequences used in the experiments stay far below that
    range. *)

type t
(** A normalised rational: gcd(num, den) = 1, den > 0. *)

exception Overflow
(** Raised when an exact result does not fit in native integers. *)

val num : t -> int
val den : t -> int

val to_float : t -> float

val approximations_above : target:float -> count:int -> t list
(** [approximations_above ~target ~count] returns a strictly decreasing
    sequence of at most [count] rationals [q_i/k_i >= target] converging to
    [target], with geometrically growing denominators — the sequence shape
    used in the appendix reduction for C(η).  When [target] is itself a
    small rational the sequence reaches it exactly and is shorter than
    [count].  Requires [target > 1.]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [num/den], or just [num] when [den = 1]. *)
