(** Whole-group strategy construction and dispatch.

    The single entry point the core library uses: given an instance
    [(m, k, f)], produce the [k] itineraries of the (asymptotically
    optimal) strategy appropriate for its regime. *)

type t = {
  params : Search_bounds.Params.t;
  itineraries : Search_sim.Itinerary.t array;  (** length [k] *)
  predicted_ratio : float;
      (** the ratio this group is designed to achieve ([infinity] when the
          instance is unsolvable and the array is empty) *)
}

val optimal : ?alpha:float -> Search_bounds.Params.t -> t
(** Regime dispatch: {!Baseline.partition} when [k >= m(f+1)] (ratio 1),
    the {!Mray_exponential} strategy in the searching regime (ratio
    [lambda0], or the appendix bound for a non-default [alpha]).
    @raise Invalid_argument for an unsolvable instance ([f = k]). *)

val trajectories : t -> Search_sim.Trajectory.t array
(** Compile every itinerary. *)
