(** Robust floating-point helpers.

    Every quantity in this reproduction is a positive real (a distance, a
    time, a competitive ratio), frequently produced by long products such as
    [rho ** rho / (rho -. 1.) ** (rho -. 1.)] whose direct evaluation loses
    precision or overflows for extreme parameters.  This module centralises
    the tolerant comparisons and log-domain evaluation used throughout. *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] holds when [a] and [b] agree up to relative tolerance
    [eps] (absolute tolerance [eps] near zero). *)

val is_finite : float -> bool
(** True for normal, subnormal and zero values; false for nan and infinities. *)

val log_pow : float -> float -> float
(** [log_pow b e] is [e *. log b] with the conventions needed by the paper's
    formulas: [log_pow 0. 0. = 0.] (the proofs use the continuous extension
    [0^0 = 1], e.g. at [s = k] where the bound degenerates to the classic 9).
    Requires [b >= 0.]. *)

val sum : float list -> float
(** Naive left-to-right sum; see {!Kahan} for the compensated variant. *)

val to_string : float -> string
(** The shortest of [%g] and [%.17g] that reads back as the same float:
    [%g] when it round-trips, else [%.17g].  The bytes equal
    [Printf.sprintf] of those formats, including ["inf"], ["-inf"] and
    ["nan"], without going through [Printf]. *)
