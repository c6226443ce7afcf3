(** End-to-end verification of a solution.

    Three independent checks, each grounded in a different part of the
    paper, that a synthesized strategy actually delivers its bound:

    - {e simulation}: the adversary scans worst-case targets over
      [[1, horizon]] and the measured sup-ratio must not exceed the
      designed ratio (up to discretisation tolerance);
    - {e covering}: in the searching regime, the ORC projection must
      [q]-fold λ-cover [[1, horizon]] at the designed ratio — the
      relaxation the lower-bound proof pivots on;
    - {e tightness}: the designed ratio must be within tolerance of the
      closed-form optimum (for the default [alpha]). *)

type report = {
  solution : Solve.solution;
  simulated_ratio : float;
  witness : Search_sim.World.point;  (** target attaining the sup *)
  simulation_ok : bool;  (** simulated <= designed (+ tolerance) *)
  covering_ok : bool option;
      (** ORC coverage verdict; [None] outside the searching regime *)
  gap_to_bound : float;  (** designed ratio - closed-form bound, >= 0 *)
}

val verify : ?tolerance:float -> Solve.solution -> report
(** [tolerance] is relative, default [1e-6]. *)

val sweep_row : Problem.t -> samples:int -> int -> string list option
(** Row [i] of the α-sweep over [samples] bases
    [α = α*·(0.7 + 0.8·i/(samples−1))] around the optimal base α* of a
    searching-regime instance: [None] at or below the floor [α <= 1.001],
    else the cells [α], designed ratio and simulated worst case on
    [[1, horizon]], at four decimals.  Check [samples] with
    {!Problem.check_samples} first. *)

val all_ok : report -> bool

val pp : Format.formatter -> report -> unit
