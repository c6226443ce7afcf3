(** Exact rationals over native (63-bit) integers.

    The appendix of the paper reduces the fractional one-ray retrieval
    problem (real weight η) to the integer ORC covering problem through a
    sequence of rational approximations [q_i / k_i ↓ η].  This module
    provides the exact arithmetic for that reduction; all operations
    normalise by the gcd and keep the denominator positive.

    Overflow policy: operations that would overflow the 63-bit range raise
    {!Overflow} rather than silently wrapping.  The approximation sequences
    used in the experiments stay far below that range. *)

type t
(** A normalised rational: gcd(num, den) = 1, den > 0. *)

exception Overflow
(** Raised when an exact result does not fit in native integers. *)

exception Division_by_zero_rational
(** Raised by {!div} and {!inv} on a zero divisor. *)

val make : int -> int -> t
(** [make num den] is the normalised [num/den].
    @raise Division_by_zero_rational if [den = 0]. *)

val zero : t
val one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val inv : t -> t
val abs : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool

val to_float : t -> float

val of_float_approx : ?max_den:int -> float -> t
(** Best rational approximation of a float with denominator at most
    [max_den] (default 10_000), by the Stern–Brocot / continued-fraction
    walk.  Requires a finite argument. *)

val approximations_above : target:float -> count:int -> t list
(** [approximations_above ~target ~count] returns a strictly decreasing
    sequence of at most [count] rationals [q_i/k_i >= target] converging to
    [target], with geometrically growing denominators — the sequence shape
    used in the appendix reduction for C(η).  When [target] is itself a
    small rational the sequence reaches it exactly and is shorter than
    [count].  Requires [target > 1.]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [num/den], or just [num] when [den = 1]. *)
