(** Round-based semantics on a single ray — the ORC setting (Section 3.1).

    A {e round} is the period between two consecutive visits of the origin;
    after standardisation each round turns exactly once, at depth [t_i].
    The robot reaches depth [x <= t_i] in round [i] at time
    [2 (t1 + ... + t_{i-1}) + x], so round [i] λ-covers exactly
    [[t''_i, t_i]] with [t''_i = (t1 + ... + t_{i-1}) /. mu],
    [mu = (lambda - 1) / 2].  Unlike the line setting, one robot may cover
    the same point in several rounds, and each covering counts (the ORC
    rule: coverings are distinct when separated by a visit of 0). *)

val visit_time : Turning.t -> i:int -> x:float -> float option
(** Time of reaching depth [x] (outbound) in round [i]; [None] when
    [x > t_i].  Requires [x >= 0.]. *)

val cover_threshold : Turning.t -> mu:float -> i:int -> float
(** [t''_i = (t1 + ... + t_{i-1}) /. mu] (note: sum up to [i - 1], unlike
    the line setting). *)

val round_cover :
  Turning.t -> mu:float -> i:int -> Search_numerics.Interval1.t option
(** The interval [[t''_i, t_i]] λ-covered in round [i], when fruitful. *)

val cover_intervals :
  Turning.t -> mu:float -> up_to:int -> (int * Search_numerics.Interval1.t) list
(** Fruitful rounds' intervals with their round indices, [i <= up_to]. *)

val cover_intervals_within :
  Turning.t -> mu:float -> within:float * float -> ?max_rounds:int -> unit
  -> (int * Search_numerics.Interval1.t) list
(** All fruitful intervals intersecting the window, stopping at the first
    round whose threshold [t''_i] passes the window's right end (the
    thresholds are monotone increasing, so no later round can contribute).
    [max_rounds] (default 1_000_000) guards against degenerate sequences.
    This is the reference that [Search_covering.Orc]'s flat-array kernel
    must reproduce bit for bit. *)

val itinerary :
  ?label:string -> world:Search_sim.World.t -> ray:int -> Turning.t
  -> Search_sim.Itinerary.t
(** Simulator plan performing the rounds on a fixed ray of [world]. *)
