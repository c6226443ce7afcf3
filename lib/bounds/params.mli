(** Problem parameters and their classification.

    An instance of the paper's search problem is a triple [(m, k, f)]:
    [m] rays emanating from the origin (the real line is [m = 2]), [k]
    unit-speed robots starting at the origin, [f] of them faulty of crash
    type.  The derived quantities and the trivial/meaningful classification
    follow Section 1 and the remarks after Theorems 1 and 6. *)

type t = private { m : int; k : int; f : int }

val make : m:int -> k:int -> f:int -> t
(** Validates [m >= 2], [k >= 1], [0 <= f <= k].
    @raise Search_numerics.Search_error.Error
      ([Regime_violation]) otherwise. *)

val line : k:int -> f:int -> t
(** The line instance: [make ~m:2 ~k ~f]. *)

val q : t -> int
(** [q = m * (f + 1)]: the covering demand of the ORC relaxation — each
    distance must be covered by [f + 1] robots on each of the [m] rays. *)

val s : t -> int
(** [s = q - k]: the per-pair demand of the line proof
    ([s = 2(f+1) - k] when [m = 2]).  May be non-positive (trivial case). *)

val rho : t -> float
(** [rho = q / k], the single parameter the tight bound depends on. *)

type regime =
  | Unsolvable
      (** [f = k]: all robots may be faulty; no strategy can confirm the
          target ("s > k, i.e. f + 1 > k, means that k = f"). *)
  | Ratio_one
      (** [k >= m(f+1)]: sending [f+1] robots along each ray gives
          competitive ratio 1. *)
  | Searching
      (** [f < k < m(f+1)]: the meaningful regime of Theorems 1 and 6, with
          competitive ratio [lambda0 = 2 rho^rho/(rho-1)^(rho-1) + 1]. *)

val regime : t -> regime

val regime_to_string : regime -> string
(** ["unsolvable"], ["ratio-one"] or ["searching"]: the spelling both
    {!pp_regime} and the serve protocol use. *)

val pp : Format.formatter -> t -> unit
val pp_regime : Format.formatter -> regime -> unit
