(** Compensated (Kahan–Babuška–Neumaier) summation.

    Robot loads [L(r)(P) = t1 + t2 + ... + t_ir] are sums of geometrically
    growing terms; when a strategy is probed over long horizons the naive sum
    loses the small early terms.  The potential-function certificate divides
    by these loads, so we keep them exact to the last ulp. *)

type t
(** A running compensated sum.  Immutable: {!add} returns a new value. *)

val zero : t
(** The empty sum. *)

val add : t -> float -> t
(** [add acc x] incorporates [x]. *)

val value : t -> float
(** Current value of the sum (principal part plus compensation). *)
