(** Single-robot zigzag semantics on the line (Section 2).

    A turning sequence [T = (t1, t2, t3, ...)] sends the robot till [+t1],
    till [-t2], till [+t3], and so on.  For the ±-covering relaxation the
    relevant quantity is when the robot has visited {e both} [x] and [-x]:
    for normalised (nondecreasing) sequences with [t_{i-1} < x <= t_i] this
    is exactly [2 (t1 + ... + t_i) + x] — the robot completes leg [i], then
    travels back through the origin to the opposite copy.

    [pair_visit_time] below computes the quantity {e directly from the
    motion} (no normalisation assumption); the property tests confirm it
    coincides with the closed formula on nondecreasing sequences, which is
    the identity the paper's proof rests on. *)

val pair_visit_time :
  ?max_rounds:int -> Turning.t -> x:float -> float option
(** Earliest time by which both [+x] and [-x] (for [x > 0.]) have been
    visited; [None] if this does not happen within [max_rounds] turning
    points (default 100_000). *)

val pair_visit_time_formula : Turning.t -> x:float -> i:int -> float
(** The paper's closed form [2 (t1 + ... + t_i) +. x] for the cover index
    [i] (the index with [t_{i-1} < x <= t_i] on normalised sequences). *)

val cover_threshold : Turning.t -> mu:float -> i:int -> float
(** Eq. (3): [t''_i = max ((t1 + ... + t_i) /. mu) t_{i-1}] — the smallest
    [x] that turn [i] still λ-covers, where [mu = (lambda - 1) / 2]. *)

val fruitful : Turning.t -> mu:float -> i:int -> bool
(** Whether [t''_i <= t_i] — turn [i] λ-covers a nonempty interval. *)

val cover_intervals :
  Turning.t -> mu:float -> up_to:int -> (int * Search_numerics.Interval1.t) list
(** The λ-cover [Cov_mu(T)]: the intervals [[t''_i, t_i]] of the fruitful
    indices [i <= up_to], tagged with their turn index. *)

val cover_intervals_within :
  Turning.t -> mu:float -> within:float * float
  -> (int * Search_numerics.Interval1.t) list
(** The λ-cover restricted to the window: the fruitful intervals that
    intersect it, stopping at the first turn whose sum threshold
    [(t1 + ... + t_i) /. mu] passes the window's right end (the
    thresholds are nondecreasing), and after at most 1_000_000 turns.
    This is the reference that [Search_covering.Symmetric]'s flat-array
    kernel must reproduce bit for bit. *)

val lambda_covers : ?max_rounds:int -> Turning.t -> lambda:float -> x:float -> bool
(** Whether the robot λ-covers [x >= 1.]: both copies visited within
    [lambda *. x] (motion-level definition). *)

val itinerary : ?label:string -> Turning.t -> Search_sim.Itinerary.t
(** The corresponding simulator itinerary (positive direction first). *)
