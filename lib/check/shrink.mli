(** Greedy counterexample minimisation.

    When a case violates an invariant, the harness tries structurally
    smaller variants — fewer targets, fewer robots, fewer faults, fewer
    rays, a shorter window, neutral knobs — and keeps any variant that
    still fails, repeating until no candidate fails or the attempt
    budget runs out.  The result is the case that gets written to the
    corpus: small enough to read, still failing, still replayable. *)

val minimize : still_fails:(Case.t -> bool) -> Case.t -> Case.t
(** Greedy descent: repeatedly replace the case by its first failing
    candidate.  At most 500 [still_fails] evaluations; deterministic. *)
