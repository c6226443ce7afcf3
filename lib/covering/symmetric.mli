(** The symmetric line-cover setting (±-covering, Section 2).

    A point [x >= 1] is covered by a robot at the moment it has visited
    both [x] and [-x]; it is λ-covered if that happens within time
    [lambda x].  A strategy with competitive ratio λ for the line problem
    with [f] crash faults must s-fold λ-cover [R >= 1] with
    [s = 2(f+1) - k]: both [x] and [-x] need [f + 1] timely visits —
    [2(f+1)] in total — and each of the [k] robots contributes at most one
    single-sided visit unless it λ-covers the pair, so at least
    [2(f+1) - k] robots must visit both sides in time.  This module turns
    turning-sequence strategies into interval multisets and checks the
    demand with the sweep line.

    Every entry point walks flat-array prefix views
    ({!Search_strategy.Turning.compiled}).  The reference loop over the
    mutex-memoised sequences is
    {!Search_strategy.Line_zigzag.cover_intervals_within}; the compiled
    view replays its arithmetic in the same order, so the intervals are
    bit-identical (fuzz invariant [kernel.compiled_eq_reference]). *)

val cover_intervals_within :
  Search_strategy.Turning.t -> lambda:float -> within:float * float
  -> (int * Search_numerics.Interval1.t) list
(** One robot's λ-cover [Cov_mu(T)] restricted to the window: the fruitful
    intervals [[t''_i, t_i]] (eq. 3, [mu = (lambda-1)/2]) that intersect
    it.  Stops at the first turn whose threshold passes the window (the
    thresholds are nondecreasing), and after at most 1_000_000 turns. *)

val check :
  Search_strategy.Turning.t array -> demand:int -> lambda:float -> n:float
  -> Search_numerics.Sweep.verdict
(** Is [[1, n]] [demand]-fold λ-covered by the group?  [demand] is
    typically [Params.s] of the instance. *)

val max_covered :
  Search_strategy.Turning.t array -> demand:int -> lambda:float -> n:float
  -> float
(** The largest [x <= n] such that [[1, x)] is [demand]-fold λ-covered:
    the sweep's gap witness is the leftmost under-covered point ([n] when
    fully covered, [1.] when not even a neighbourhood of 1 is). *)
