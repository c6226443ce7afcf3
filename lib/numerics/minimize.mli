(** One-dimensional minimisation over an interval.

    Used for the α-sweep experiments: the competitive ratio of the
    exponential strategy as a function of its base α is unimodal with the
    minimum at [α* = (q/(q-k))^(1/k)] (appendix of the paper); we verify
    this numerically by minimising the simulated ratio. *)

val grid_then_golden :
  ?samples:int -> ?tol:float -> f:(float -> float) -> float -> float
  -> float * float
(** Robust variant for functions that are only piecewise-unimodal (simulated
    ratios have small plateaus): first scans [samples] (default 64) grid
    points to locate the best bracket, then refines with {!golden}. *)
