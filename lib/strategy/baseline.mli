(** Baseline strategies for comparison tables.

    The trivial regimes of Section 1 and the natural-but-suboptimal
    strategies a practitioner would try first.  The benches report these
    next to the optimal exponential strategy. *)

val partition : Search_bounds.Params.t -> Search_sim.Itinerary.t array
(** The ratio-1 strategy for [k >= m(f+1)]: [f + 1] robots head straight
    out on each ray, never turning (surplus robots beyond [m (f+1)] follow
    ray 0); "by sending f + 1 of the robots to ∞ and f + 1 of the robots
    to −∞ we achieve a competitive ratio 1".
    @raise Invalid_argument when [k < m (f+1)]. *)

val replicated_doubling : k:int -> Search_sim.Itinerary.t array
(** All [k] robots run the {e same} doubling cow-path strategy.  Since
    identical robots visit every point simultaneously, the [(f+1)]-st
    visit happens at the first visit: this tolerates any [f < k] crash
    faults at competitive ratio 9 on the line — a useful foil showing that
    the lower bound's difficulty is not fault tolerance per se but the
    [m > 2] / time-efficiency trade-off ([A(k, f) < 9] whenever
    [rho < 2], which replication cannot reach). *)

val replicated_mray : m:int -> k:int -> Search_sim.Itinerary.t array
(** Same idea on [m] rays: [k] copies of the optimal single-robot m-ray
    strategy; ratio [1 + 2 m^m/(m-1)^(m-1)] for any [f < k]. *)
