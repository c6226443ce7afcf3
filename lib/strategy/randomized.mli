(** Randomized single-robot line search (Kao–Reif–Tate, cited as [21]).

    Against an oblivious adversary, randomisation beats the deterministic
    9: the geometric strategy with turning points [beta^(i + u)] — [u]
    uniform in [[0, 1)], first direction a fair coin — achieves expected
    competitive ratio

    [r(beta) = 1 + (1 + beta) / ln beta],

    minimised at the root [beta_star] of [beta ln beta = beta + 1]
    ([beta_star ~ 3.59112]), where the ratio is [1 + beta_star ~ 4.59112]
    — optimal for randomized strategies.  The paper cites this work in its
    related-work discussion; we include it as the randomized counterpart
    of the deterministic machinery (and a consumer of the
    {!Search_numerics.Prng} substrate). *)

val ratio_formula : beta:float -> float
(** [1 + (1 + beta) / ln beta].  Requires [beta > 1.]. *)

val optimal_beta : unit -> float
(** The root of [beta ln beta = beta + 1] in (1, 10), by Brent. *)

val optimal_ratio : unit -> float
(** [1 + optimal_beta ()], about 4.59112. *)

val detection_time :
  beta:float -> u:float -> positive_first:bool -> x:float -> float
(** Time for the single robot to reach the (signed) coordinate [x <> 0.]:
    motion-level walk of the zigzag with the given randomness. *)

val expected_ratio_at :
  beta:float -> x:float -> samples:int -> prng:Search_numerics.Prng.t
  -> float
(** Monte-Carlo estimate of [E (detection_time / |x|)] over the offset
    [u] and the initial direction, for a target at signed coordinate [x].
    Converges to {!ratio_formula} [~beta] for large [|x|]. *)

val expected_ratio_exact :
  beta:float -> x:float -> grid:int -> float
(** Deterministic quadrature over [u] (midpoint rule with [grid] cells,
    averaging the two directions) — the flake-free variant used by the
    tests. *)
