(** Empirical competitive ratios: the ratio-vs-distance profile (a
    "figure" series) behind the ratio curves. *)

type profile_point = { dist : float; ray : int; ratio : float }

val profile :
  Trajectory.t array -> f:int -> ?ratio_cap:float -> n:float -> samples:int
  -> unit -> profile_point list
(** Detection ratio at [samples] log-spaced distances in [[1, n]] on every
    ray, in increasing distance order (rays interleaved).  This is the raw
    series behind the ratio curves. *)
