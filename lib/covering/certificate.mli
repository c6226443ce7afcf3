(** Executable lower-bound certificates.

    The paper proves: no strategy achieves competitive ratio
    [lambda < lambda0].  For a {e concrete} strategy and a claimed
    [lambda], this module produces a checkable refutation along the
    proof's own lines:

    + if the strategy does not even [demand]-fold λ-cover [[1, n]], the
      sweep exhibits an under-covered witness point — the adversary places
      the target there ([Refuted_gap]);
    + if it does cover, the assigned-interval system is built and the
      potential function is evaluated; when [lambda] is below the bound,
      Lemma 5 forces every step to multiply the potential by
      [delta > 1] while boundedness caps it, so the potential trace
      crossing its ceiling certifies that the coverage cannot extend much
      further ([Refuted_potential] — carries the trace).

    Above the bound ([delta <= 1]) nothing is refuted and the verdict
    reports the verified coverage ([Not_refuted]).  A greedy failure in
    the assignment builder is reported as [Inconclusive] (it is not a
    proof of anything). *)

type verdict =
  | Refuted_gap of { at : float; multiplicity : int; demand : int }
      (** a point of [[1, n]] covered fewer than [demand] times *)
  | Refuted_potential of Potential.trace
      (** coverage holds on [[1, n]] but the potential crossed its
          ceiling: the strategy cannot λ-cover much beyond [n] *)
  | Not_refuted of { n : float; delta : float }
      (** coverage verified; [delta <= 1] (λ at or above the bound) or the
          potential stayed within its ceiling on this horizon *)
  | Inconclusive of string

val check_line :
  turns:Search_strategy.Turning.t array -> f:int -> lambda:float -> n:float
  -> unit -> verdict
(** Certificate for the line problem: [k = Array.length turns] robots,
    [f] crash faults, demand [s = 2(f+1) - k] in the ±-covering setting.
    Requires the searching regime ([0 < s <= k]). *)

val check_orc :
  turns:Search_strategy.Turning.t array -> demand:int -> lambda:float
  -> n:float -> unit -> verdict
(** Certificate in the ORC setting with covering demand [q = demand]
    (for the m-ray problem, [q = m (f+1)]).  Requires [k < demand]. *)

val check_line_sharded :
  ?jobs:int -> turns:Search_strategy.Turning.t array -> f:int
  -> lambdas:float list -> n:float -> unit -> (float * verdict) list
(** {!check_line} over a whole λ-grid, the points sharded across a
    domain pool of [jobs] workers (default
    [Domain.recommended_domain_count ()]).  The result list pairs each λ
    with its verdict, in the input order — identical to mapping
    {!check_line} sequentially, at any job count. *)

val check_orc_sharded :
  ?jobs:int -> turns:Search_strategy.Turning.t array -> demand:int
  -> lambdas:float list -> n:float -> unit -> (float * verdict) list
(** {!check_orc} over a λ-grid; same contract as
    {!check_line_sharded}. *)

val lambda_grid : lo:float -> hi:float -> count:int -> float list
(** [count] evenly spaced λ values from [lo] to [hi] inclusive
    (a single midpoint when [count = 1]).  Requires [count >= 1] and
    [lo <= hi]. *)

val log_horizon_bound :
  Assigned.setting -> k:int -> demand:int -> lambda:float -> ?engage:float
  -> ?c:float -> unit -> float
(** The quantitative content of Theorems 3 and 6's lower bounds: for
    [lambda] strictly below the bound, [ln] of an explicit horizon [N]
    beyond which {e no} strategy can [demand]-fold λ-cover [[1, N]]
    (returns [infinity] at or above the bound, where arbitrarily long
    coverings exist).

    Derivation (line setting, [mu = (lambda-1)/2], [s = demand]): once
    every robot has an assigned interval — by frontier [engage], default
    [mu], the natural normalisation; the paper's Section 3.1 Case 2
    induction handles strategies that violate it — the potential satisfies
    [ln f(P0) >= -. s k ln (mu *. engage)] (loads at least 1, the [s]
    multiset elements at most [mu a]); every step multiplies [f] by
    [delta > 1] (Lemma 5) while [f <= mu^(s k)] (eq. 8), capping the
    number of steps at [T = s k (2 ln mu + ln engage) / ln delta]; and
    each step advances the frontier by a factor at most [mu], so
    [N <= engage *. mu^T].

    ORC setting: same shape with [s = demand - k] and the Case-1 ceiling
    [C^(demand k) mu^(s k)] for left-end jump ratio at most [c]
    (default [mu^2]). *)

val coverage_threshold_lambda :
  check:(lambda:float -> bool) -> lo:float -> hi:float -> ?tol:float -> unit
  -> float
(** Bisection utility for experiment F5: the smallest λ in [[lo, hi]] for
    which [check ~lambda] holds, assuming monotonicity (coverage only
    improves as λ grows).  [tol] defaults to 1e-9. *)

val pp_verdict : Format.formatter -> verdict -> unit
