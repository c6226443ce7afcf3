(** The adversary: worst-case target placement.

    For a fixed group of trajectories, the worst-case competitive ratio
    over targets in [[1, N]] on each ray is a supremum of
    [detection_time(x) / x].  Between consecutive turning points the
    detection time is affine in [x] with slope [±1] (the last needed
    visitor is on a single leg), so [ratio(x)] is monotone there and the
    supremum is attained arbitrarily close to the breakpoints — the leg
    endpoints of the robots.  The scan therefore evaluates each breakpoint
    depth [d] together with [d (1 ± eps)], which brackets the one-sided
    limits; this is exactly the adversary of the paper's proofs ("the
    adversary will place the target there"), discretised to precision
    [eps]. *)

type outcome = {
  ratio : float;  (** the supremum found ([infinity] if some target escapes) *)
  witness : World.point;  (** a target attaining (approaching) it *)
  detection_time : float;  (** detection time at the witness *)
  candidates_scanned : int;
}

val default_eps : float
(** Relative bracketing offset around breakpoints: [1e-7]. *)

val default_ratio_cap : float
(** Time-horizon multiplier: a target at distance [x] undetected by time
    [ratio_cap *. x] is reported as escaping ([ratio = infinity]).
    Default [256.] — far above every bound in the paper's range. *)

val candidate_targets :
  Trajectory.t array -> ?eps:float -> n:float -> time_horizon:float -> unit
  -> World.point list
(** All breakpoint-bracketing targets with distances in [[1, n]]:
    the distances [1.], [n], and [d], [d (1-eps)], [d (1+eps)] for every
    leg-endpoint depth [d] of every robot reached within [time_horizon].
    Sorted by ray index, then ascending distance, with exact duplicates
    removed — the same depth reached by several robots (or colliding with
    the [1.]/[n] endpoints) is scanned once. *)

val compiled_scan :
  flats:Trajectory.flat array ->
  depths:float array array ->
  times:float array ->
  f:int ->
  k:int ->
  horizon:float ->
  out:float array ->
  unit
(** The allocation-free inner loop of {!worst_case}, exposed
    so the bench harness can put a Gc meter directly on it.  [flats]
    are the [k] flattened trajectories, [depths] the per-ray candidate
    depths (ascending, duplicate-free), [times] a reused length-[k]
    scratch.  Writes [[| best ratio; best ray (as float); best dist |]]
    into [out] ([out.(0) = neg_infinity] when the candidate set is
    empty); raises the {!Search_numerics.Search_error.Non_convergence}
    NaN contract of [Stats.sup_add].  A [@hot] lint root: zero
    reachable allocation sites, checked by the lint's [hotpath-alloc]
    rule and cross-checked dynamically by [bench/kernels.exe]. *)

val worst_case :
  Trajectory.t array -> f:int -> ?eps:float -> ?ratio_cap:float -> n:float
  -> unit -> outcome
(** Supremum of the crash-fault detection ratio over {!candidate_targets}.
    Requires a non-empty trajectory array, [f >= 0] and [n >= 1.].
    Flattens each trajectory's leg prefix into arrays once and runs
    {!compiled_scan} with a reused scratch array for the
    (f+1)-st-smallest visit time. *)

val reference :
  Trajectory.t array -> f:int -> ?eps:float -> ?ratio_cap:float -> n:float
  -> unit -> outcome
(** The executable specification of {!worst_case}: folds
    [Stats.sup_add] over {!candidate_targets}, evaluating each through
    {!Engine.detection_ratio} (consed lists, per-candidate sort).  Both
    visit the candidates in the same order and perform the same float
    operations, so [ratio], [witness], [detection_time] and
    [candidates_scanned] are bit-identical; the fuzz invariant
    [kernel.compiled_eq_reference] and [bench/kernels.exe] hold them to
    that.  Used by tests and benchmarks only. *)
