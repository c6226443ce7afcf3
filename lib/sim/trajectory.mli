(** Compiled unit-speed motion of one robot.

    An {!Itinerary.t} is compiled into an infinite sequence of {e legs}:
    maximal stretches of motion along a single ray.  A waypoint change
    between distinct rays contributes two legs (in to the origin, out on the
    new ray).  All queries walk the legs lazily and are bounded by a time
    horizon, since strategies are infinite objects.

    Invariant (checked by the property tests): motion is continuous and has
    speed exactly 1 — the duration of every leg equals its travelled
    distance. *)

type leg = private {
  ray : int;
  d_from : float;
  d_to : float;
  t_start : float;
}
(** Motion along [ray] from distance [d_from] to [d_to], starting at
    [t_start] and lasting [|d_to -. d_from|]. *)

type t

val compile : Itinerary.t -> t
val world : t -> World.t
val label : t -> string

val leg : t -> int -> leg
(** The i-th leg (1-based); zero-duration legs are elided. *)

val position : ?max_legs:int -> t -> float -> World.point
(** Location at a given time [>= 0.]; the robot starts at the origin.
    @raise Search_numerics.Search_error.Error ([Non_convergence]) when a
      strategy stops making progress: more than [max_legs] consecutive
      legs fit under the queried horizon.  This catches malformed
      strategies whose turning points stop growing. *)

val first_visit : ?max_legs:int -> t -> target:World.point -> horizon:float -> float option
(** Earliest time [<= horizon] at which the robot is at [target]. *)

val visits : ?max_legs:int -> t -> target:World.point -> horizon:float -> float list
(** All visit times [<= horizon], increasing.  A tangential turn at the
    target (arriving and immediately reversing) counts once. *)

val leg_endpoints : ?max_legs:int -> t -> horizon:float -> (int * float) list
(** [(ray, dist)] of every leg endpoint reached by time [horizon] —
    the turning points of the strategy, which are exactly the breakpoints
    of the detection-time function the adversary scans. *)

type flat = private {
  flat_rays : int array;
  flat_froms : float array;
  flat_los : float array;  (** min of the leg's two endpoints *)
  flat_his : float array;  (** max of the leg's two endpoints *)
  flat_starts : float array;
}
(** Struct-of-arrays view of the leg prefix within a horizon, for
    allocation-free scanning (the adversary's hot path).  One entry per
    leg with [t_start <= horizon], in time order. *)

val flatten : ?max_legs:int -> t -> horizon:float -> flat
(** One lazy walk of the legs, then plain arrays.
    @raise Search_numerics.Search_error.Error ([Non_convergence]) as
      {!position} would. *)

val flat_first_visit : flat -> ray:int -> dist:float -> horizon:float -> float
(** Earliest visit time of the non-origin target [(ray, dist)], or
    [infinity] when it is not visited by [horizon].  Agrees bit-for-bit
    with {!first_visit} on the flattened trajectory for [dist >= 1] and
    the same horizon. *)
