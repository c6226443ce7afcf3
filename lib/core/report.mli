(** Structured instance reports.

    Bundles everything the library can say about one instance — regime,
    closed-form bound, designed and simulated ratios (both the bracketing
    scan and the exact piecewise-affine supremum), the covering verdict,
    the certificate at a claimed sub-bound ratio, and the Byzantine
    transfer — into a single record with a markdown renderer.  The CLI's
    [report] subcommand writes it to a file. *)

type t = {
  problem : Problem.t;
  regime : Search_bounds.Params.regime;
  bound : float;
  designed_ratio : float;
  simulated_ratio : float;  (** bracketing scan *)
  exact_sup : float;  (** exact piecewise-affine supremum *)
  covering_ok : bool option;
  certificate_below : Search_covering.Certificate.verdict option;
      (** verdict at [0.99 *. bound]; [None] outside the searching regime *)
  byzantine_transfer : float option;
      (** the [B >= A] figure; [None] when not in the searching regime *)
}

val build : ?claimed_fraction:float -> Problem.t -> t
(** Solve, verify, and certify the instance.  [claimed_fraction]
    (default 0.99) sets the sub-bound ratio the certificate is run at.
    @raise Search_numerics.Search_error.Error ([Regime_violation]) for
      [f = k]. *)

val to_markdown : t -> string
(** A self-contained markdown document. *)
