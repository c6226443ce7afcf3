(** Strategy synthesis: from a problem to a concrete group plan.

    Dispatches on the regime: the partition strategy when [k >= m(f+1)]
    (ratio 1), the optimal exponential strategy in the searching regime
    (ratio [lambda0] of Theorem 6, which Theorem 6's lower bound shows is
    the best possible).  Unsolvable instances ([f = k]) are rejected. *)

type solution = private {
  problem : Problem.t;
  group : Search_strategy.Group.t;
  bound : float;
      (** the closed-form optimum for the instance (crash model); the
          strategy's design ratio equals it at the default [alpha] *)
  designed_ratio : float;
      (** the ratio this concrete group targets — differs from [bound]
          only when a non-default [alpha] was requested *)
  exponential : Search_strategy.Mray_exponential.t option;
      (** the underlying exponential strategy (searching regime only) *)
}

val solve : ?alpha:float -> Problem.t -> solution
(** @raise Search_numerics.Search_error.Error
      ([Regime_violation]) when [f = k]. *)

val trajectories : solution -> Search_sim.Trajectory.t array
(** Compiled motion of every robot. *)

val orc_turns : solution -> Search_strategy.Turning.t array option
(** The ORC projection of the group's round strategies (for covering
    checks); [None] in the ratio-one regime (straight-line robots have no
    rounds). *)

val certify : solution -> lambda:float -> Search_covering.Certificate.verdict
(** The lower-bound certificate of the solution's group against a
    claimed [lambda] on [[1, horizon]], in the instance's
    {!Problem.covering} setting.  Check [lambda] with
    {!Problem.check_lambda} first.
    @raise Search_numerics.Search_error.Error ([Regime_violation])
      outside the searching regime. *)
