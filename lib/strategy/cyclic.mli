(** Cyclic parallel strategies on [m] rays (fault-free case).

    "A cyclic strategy is a strategy in which the advancements in the
    search on the rays is happening in cyclic order, and at each step each
    robot is assigned a farther distance to explore on a ray than it
    previously explored on other rays" (Section 3, after Bernstein,
    Finkelstein, and Zilberstein, IJCAI'03).  The fault-free instance of
    the {!Mray_exponential} strategy is exactly such a strategy, and at the
    optimal base it attains [A(m, k, 0)] — the value [11] could only prove
    optimal {e within} the class of cyclic strategies, and that Theorem 6
    shows optimal among all strategies.  This module exposes that instance
    directly, plus the classic [k = 1] specialisations. *)

val itineraries : ?alpha:float -> m:int -> k:int -> unit -> Search_sim.Itinerary.t array
(** The cyclic strategy of [k] fault-free robots on [m] rays; requires
    [1 <= k < m].  [alpha] defaults to the optimal
    [(m/(m-k))^(1/k)]. *)

val single_robot : ?alpha:float -> m:int -> unit -> Search_sim.Itinerary.t
(** The classic single-robot m-ray search ([k = 1]), with default base
    [alpha* = m/(m-1)]; for [m = 2] this is the doubling strategy with
    competitive ratio 9. *)

val doubling_cow : unit -> Search_sim.Itinerary.t
(** [single_robot ~m:2 ()]: go 1 right, 2 left, 4 right, ... — the cow
    path strategy from the introduction. *)
