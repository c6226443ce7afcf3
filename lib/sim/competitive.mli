(** Empirical competitive ratios: profiles and horizon convergence.

    Wraps {!Adversary.worst_case} with the reporting shapes used by the
    experiments: the full ratio-vs-distance profile (a "figure" series) and
    the convergence of the finite-horizon supremum to the paper's bound as
    the horizon grows (experiment F4). *)

type profile_point = { dist : float; ray : int; ratio : float }

val profile :
  Trajectory.t array -> f:int -> ?ratio_cap:float -> n:float -> samples:int
  -> unit -> profile_point list
(** Detection ratio at [samples] log-spaced distances in [[1, n]] on every
    ray, in increasing distance order (rays interleaved).  This is the raw
    series behind the ratio curves. *)

val horizon_convergence :
  make_trajectories:(unit -> Trajectory.t array) -> f:int
  -> ?ratio_cap:float -> ns:float list -> unit -> (float * float) list
(** [(n, sup-ratio over [1, n])] for each horizon in [ns].
    [make_trajectories] is called once per horizon so that memoisation
    caches don't accumulate across runs. *)
