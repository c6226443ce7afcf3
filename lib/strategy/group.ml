module Params = Search_bounds.Params

type t = {
  params : Params.t;
  itineraries : Search_sim.Itinerary.t array;
  predicted_ratio : float;
}

let optimal ?alpha params =
  match Params.regime params with
  | Params.Unsolvable ->
      invalid_arg "Group.optimal: all robots may be faulty (f = k)"
  | Params.Ratio_one ->
      { params; itineraries = Baseline.partition params; predicted_ratio = 1. }
  | Params.Searching ->
      let strat = Mray_exponential.make ?alpha params in
      {
        params;
        itineraries = Mray_exponential.itineraries strat;
        predicted_ratio = Mray_exponential.predicted_ratio strat;
      }

let trajectories t = Array.map Search_sim.Trajectory.compile t.itineraries
