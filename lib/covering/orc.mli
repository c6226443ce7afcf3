(** The one-ray cover with returns (ORC) setting (Section 3).

    All robots move on a single ray; a point may be covered several times
    by the same robot, but repeat coverings only count when separated by a
    visit of the origin — i.e. by round.  A strategy for searching a
    target on [m] rays with [k] robots, [f] faulty, with competitive ratio
    λ induces a [q]-fold λ-covering here with [q = m (f + 1)]: discard the
    ray labels, keep the rounds.  This module builds the interval multiset
    of a round-strategy group and checks the demand.

    As in {!Symmetric}, every entry point walks flat-array prefix views;
    the reference over the memoised sequences is
    {!Search_strategy.Orc_round.cover_intervals_within}, and the outputs
    are bit-identical. *)

val cover_intervals_within :
  Search_strategy.Turning.t -> lambda:float -> within:float * float
  -> (int * Search_numerics.Interval1.t) list
(** One robot's fruitful round intervals [[t''_i, t_i]]
    ([t''_i = (t1 + ... + t_{i-1}) / mu]) intersecting the window. *)

val check :
  Search_strategy.Turning.t array -> demand:int -> lambda:float -> n:float
  -> Search_numerics.Sweep.verdict
(** Is [[1, n]] [demand]-fold λ-covered in the ORC setting? *)

val max_covered :
  Search_strategy.Turning.t array -> demand:int -> lambda:float -> n:float
  -> float
(** Largest fully covered prefix of [[1, n]], as in {!Symmetric.max_covered}. *)

val of_mray : Search_strategy.Mray_exponential.t -> robot:int -> Search_strategy.Turning.t
(** The ORC projection of an m-ray strategy: the robot's turn depths in
    pass order, ray labels discarded — the relaxation step of the
    Theorem 6 proof.  For the exponential strategy this is geometric with
    ratio [alpha^k].  Depths are increasing in the pass index. *)

val of_mray_group : Search_strategy.Mray_exponential.t -> Search_strategy.Turning.t array
(** One ORC projection per robot. *)
