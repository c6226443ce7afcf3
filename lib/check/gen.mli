(** Deterministic case and strategy generators.

    Case [i] of a run is drawn from leaf [i] of the
    {!Search_exec.Shard.prngs} split tree, so the case stream depends
    only on [(seed, count)] — never on evaluation order or job count —
    and any single case can be regenerated in isolation.  The auxiliary
    randomness (turning-sequence noise) is keyed purely on the case's
    [turn_seed], making every derived object a function of the case
    record alone. *)

val cases : seed:int -> count:int -> Case.t list
(** [count] cases with ids [0 .. count-1], case [i] drawn from leaf [i]
    of the split tree rooted at [seed]. *)

val alpha : Case.t -> float
(** The exponential-strategy base the case prescribes:
    [alpha_star *. alpha_scale]. *)

val turning_group : Case.t -> Search_strategy.Turning.t array
(** One sequence per robot, staggered in scale across the group. *)
