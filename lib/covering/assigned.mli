(** Assigned intervals: the exact-coverage normalisation of the proofs.

    Both proofs turn a [demand]-fold λ-covering into a system of
    {e assigned} half-open intervals [(t', t]] — truncations of the cover
    intervals — such that every point of [(1, a]] is covered {e exactly}
    [demand] times, the turning points of each robot coincide with the
    right ends of its intervals, and unneeded turning points are removed
    from the robot's strategy (shrinking its load).  Exactness forces the
    intervals, sorted by left endpoint, to begin precisely at the current
    [demand]-fold frontier [a(P)] — the property the potential-function
    step analysis rests on.

    This module constructs such a system {e greedily}: it sweeps the
    frontier rightward, and at each step starts, at the frontier, the
    candidate interval with the earliest right end (earliest-deadline-
    first) among those whose robot may legally begin one there:

    - ORC setting: robot [r] may start an interval at [a] when its load
      (sum of its used turning points) satisfies [L(r) <= mu a] — this is
      constraint (14), i.e. the round's threshold [t'' = L/mu] has been
      reached; any unused turn [t > a] may serve as the right end.
    - Line setting: constraint (4) includes the new turn in the sum, so a
      turn [t] qualifies when [a < t <= mu a - L(r)] (eq. 5).

    The greedy can fail ([Stuck]) even when some assignment exists; for
    the strategies exercised here (normalised / geometric families) it
    succeeds whenever the sweep coverage check does, which the tests
    verify.  A [Stuck] outcome is therefore reported as {e inconclusive}
    by the certificate, never as a refutation. *)

type setting = Line_symmetric | Orc_setting

type interval = {
  robot : int;  (** 0-based owner *)
  left : float;  (** [t'] — equals the frontier when it was started *)
  turn : float;  (** [t] — the right end = the robot's turning point *)
}

type outcome =
  | Complete of interval list
      (** frontier pushed past the target; intervals in assignment order *)
  | Stuck of { frontier : float; assigned : interval list }
      (** no robot could legally start an interval at the frontier *)

val build :
  setting -> mu:float -> demand:int -> turns:Search_strategy.Turning.t array
  -> up_to:float -> ?max_steps:int -> unit -> outcome
(** Sweep from frontier 1 until it exceeds [up_to] (or [max_steps]
    assignments, default 1_000_000, or the greedy gets stuck).  Robots'
    turns are consumed in order; turns [<=] the frontier that cannot serve
    as right ends are skipped (removed from the robot's strategy, per the
    proofs).  Requires [mu > 0.], [demand >= 1], at least one robot. *)
