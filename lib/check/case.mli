(** Serializable random test cases for the fuzzing harness.

    A case is a small, fully explicit description of one fuzzing
    scenario: a searching-regime instance [(m, k, f)], a target window,
    perturbation knobs for the strategies under test, and a seed for the
    auxiliary randomness (random turning sequences, sampled fault
    assignments).  Everything an invariant needs is derived
    deterministically from these fields, so a case replays bit-for-bit
    from its JSON form — the shrunk counterexamples under [test/corpus/]
    are exactly such files. *)

type t = {
  id : int;  (** position in the generation stream (0-based) *)
  m : int;  (** rays, [>= 2] *)
  k : int;  (** robots; the searching regime [f < k < m (f+1)] is enforced *)
  f : int;  (** crash faults, [0 <= f < k] *)
  horizon : float;
      (** targets and coverage windows live in [[1, horizon]]; [>= 2.] *)
  alpha_scale : float;
      (** the exponential strategy under test uses base
          [alpha_star *. alpha_scale]; [1.] is the optimum.  In [[1, 2]]. *)
  lambda_frac : float;
      (** in [[0, 1]]: positions the certificate's λ between [0.6] and
          [1.4] times the instance's bound, spanning both sides *)
  targets : (int * float) list;
      (** [(ray, dist)] placements, [dist] in [[1, horizon]]; nonempty *)
  turn_seed : int;  (** seed of the auxiliary randomness, [>= 0] *)
}

val validate : t -> (unit, string) result
(** Structural validity: ranges as documented above, searching regime,
    nonempty target list, every float finite. *)

val valid : t -> bool

val params : t -> Search_bounds.Params.t
(** The instance [(m, k, f)].  Requires {!valid}. *)

val equal : t -> t -> bool

val to_json : t -> Search_numerics.Json.t

val of_json : Search_numerics.Json.t -> (t, string) result
(** Inverse of {!to_json} (the JSON float printer round-trips exactly);
    also {!validate}s. *)
