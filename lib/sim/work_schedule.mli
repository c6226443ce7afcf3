(** The distance (total work) measure of Kao–Ma–Sipser–Yin.

    Section 3 contrasts two cost measures for parallel ray search: time
    [T/d] (the paper's subject) and total distance [D/d] travelled by all
    robots (resolved in [20]).  In the distance measure the clock is
    irrelevant — only the sum of path lengths counts — so an optimal
    schedule may run one robot at a time.  The paper remarks:
    "Somewhat unfortunately, the optimal algorithm does not really use
    multiple robots simultaneously: all but one robot search on one ray
    each, while the last robot performs the search on all remaining rays."

    This module implements that measure: a {e work schedule} is a
    sequence of single-robot moves executed one at a time; the cost of
    finding a target is the total distance accumulated when some robot
    first passes it.  The KMSY-shaped schedule below exhibits the quoted
    structure; the benches contrast its [D/d] with the time-optimal
    strategy's (which pays [k] distances per time unit). *)

type t
(** A lazily generated sequence of single-robot moves over a world: each
    moves one robot to a point (star metric) while the others stand
    still and accrue no distance. *)

type outcome = { ratio : float; witness : World.point }

val worst_ratio :
  ?eps:float -> ?ratio_cap:float -> t -> n:float -> unit -> outcome
(** Supremum of [work(x) / |x|] over targets with distances in [[1, n]]
    (breakpoint bracketing as in {!Adversary}), where [work(x)] is the
    total distance accumulated when the target is first passed (the final
    move counted only up to the target).  [ratio_cap] (default 1024)
    bounds the explored work budget per unit distance; a target not
    passed within [ratio_cap *. |x|] counts as [infinity].
    @raise Search_numerics.Search_error.Error ([Non_convergence]) when
      one walk exceeds 1_000_000 moves without spending its budget. *)

val kmsy : ?alpha:float -> m:int -> k:int -> unit -> t
(** The [20]-shaped schedule for [k <= m] fault-free robots: robots
    [0 .. k-2] own rays [0 .. k-2] and only ever advance (no
    backtracking); robot [k-1] sweeps rays [k-1 .. m-1].  Exploration
    depths follow one global geometric sequence of base [alpha]
    (default 2) visiting the rays cyclically.  With [k = 1] this is the
    plain single-robot m-ray search and [worst_ratio] reproduces
    [1 + 2 m^m/(m-1)^(m-1)] at the optimal base — the calibration anchor
    for the work semantics. *)

val parallel_charged :
  Trajectory.t array -> f:int -> n:float -> float
(** The distance cost of running a {e parallel} strategy: all [k] robots
    move simultaneously, so the work at detection time [T] is [k T]; this
    returns the worst-case [k T(x) / |x|] — the quantity the KMSY remark
    says is wasteful. *)
