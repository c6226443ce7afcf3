(** Bracketing one-dimensional root finders.

    Used to invert the paper's bound formulas — e.g. finding the λ at which
    the lower-bound certificate stops refuting (experiment F5), or the ρ
    achieving a prescribed competitive ratio. *)

val brent :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float -> float
(** Brent's method: inverse quadratic interpolation with a bisection
    safeguard.  Finds [x] in [[lo, hi]] with [f x = 0], assuming [f lo]
    and [f hi] have opposite (weak) signs.  Stops when the bracket is
    shorter than [tol] (default [1e-12] relative) or after [max_iter]
    (default 200) iterations.

    @raise Search_error.Error ([Invalid_input]) if [f lo *. f hi > 0.]. *)
