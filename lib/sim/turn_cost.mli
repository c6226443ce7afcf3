(** Searching with turn cost (Demaine–Fekete–Gal, cited as [15]).

    A physical robot pays for reversals: decelerating, rotating,
    re-accelerating.  The turn-cost model charges a constant [c] per
    reversal on top of unit-speed travel, which changes the optimal
    strategy's shape — frequent short zigzags become expensive, so the
    optimal geometric base grows with [c].  This module evaluates the
    charged cost of the standard strategies so the benches can plot the
    ratio-vs-[c] ablation and the base crossover.

    A {e reversal} is a leg boundary where the robot changes direction on
    a single ray (a turning-point tip).  Passing through the origin onto
    a different ray is not charged: on the line the motion is straight,
    and on a star the junction cost is a modelling choice we keep at
    zero (set [charge_origin] to charge it too). *)

val reversals_before :
  ?charge_origin:bool -> Trajectory.t -> time:float -> int
(** Number of charged direction changes strictly before [time]. *)

val detection_cost :
  ?charge_origin:bool -> Trajectory.t array -> f:int -> turn_cost:float
  -> target:World.point -> horizon:float -> float option
(** Worst case over crash assignments: the [(f+1)]-st smallest charged
    visit cost. *)

val worst_ratio :
  ?charge_origin:bool -> ?eps:float -> ?ratio_cap:float
  -> Trajectory.t array -> f:int -> turn_cost:float -> n:float -> unit
  -> float
(** Supremum over targets in [[1, n]] of [detection_cost /. |x|]
    (breakpoint scan as in {!Adversary}). *)
