(** Problem specifications for the public API.

    A problem instance bundles the combinatorial parameters [(m, k, f)]
    with the fault model and the finite evaluation horizon used by
    simulation and verification (the theory concerns targets at any
    distance [>= 1]; all empirical checks run on [[1, horizon]]).

    The boundary checks every front end applies before it evaluates a
    query — the CLI subcommands and the daemon's ops alike — live here
    once and raise the typed taxonomy, tagged with the caller's
    [where]. *)

type fault_kind = Crash | Byzantine

type t = private {
  params : Search_bounds.Params.t;
  fault_kind : fault_kind;
  horizon : float;  (** evaluation horizon [N >= 1] *)
}

val make :
  ?fault_kind:fault_kind -> ?horizon:float -> m:int -> k:int -> f:int -> unit
  -> t
(** Defaults: [Crash] faults, horizon [1e4].
    @raise Search_numerics.Search_error.Error ([Invalid_input]) unless
      the horizon is finite and [>= 1.], ([Regime_violation]) on bad
      [(m, k, f)]. *)

val line : ?fault_kind:fault_kind -> ?horizon:float -> k:int -> f:int -> unit -> t
(** [make ~m:2 ...]. *)

val searching : where:string -> m:int -> k:int -> f:int -> horizon:float -> t
(** The crash-fault instance a lower-bound certificate or an α-sweep
    runs on: {!make}'s checks, then the searching regime.
    @raise Search_numerics.Search_error.Error ([Invalid_input] at
      [where]) unless the horizon is finite and [>= 1.];
      ([Regime_violation]) on bad [(m, k, f)] or outside the searching
      regime. *)

val check_lambda : where:string -> float -> unit
(** A claimed ratio the certificate can test: finite and [> 1].
    @raise Search_numerics.Search_error.Error ([Invalid_input] at
      [where]) otherwise. *)

val check_samples : where:string -> int -> unit
(** An α-sweep needs at least two sample points.
    @raise Search_numerics.Search_error.Error ([Invalid_input] at
      [where]) otherwise. *)

val regime : t -> Search_bounds.Params.regime

val covering : t -> Search_covering.Assigned.setting * int
(** The covering setting and demand of the instance's lower-bound
    certificate: the ±-cover with demand [s = 2(f+1) - k] on the line
    (Section 2), the ORC with demand [q = m(f+1)] otherwise
    (Section 3.1). *)

val bound : t -> float
(** The tight competitive ratio of the instance: [A(m, k, f)] for crash
    faults (Theorems 1 and 6); for Byzantine faults this is the paper's
    {e lower} bound [B >= A] (the exact Byzantine value is open). *)

val pp : Format.formatter -> t -> unit
