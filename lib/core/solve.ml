module Params = Search_bounds.Params
module Group = Search_strategy.Group
module Mray = Search_strategy.Mray_exponential
module Certificate = Search_covering.Certificate

type solution = {
  problem : Problem.t;
  group : Group.t;
  bound : float;
  designed_ratio : float;
  exponential : Mray.t option; (* the underlying strategy, searching regime *)
}

module E = Search_numerics.Search_error

let solve ?alpha problem =
  let params = problem.Problem.params in
  match Params.regime params with
  | Params.Unsolvable ->
      E.raise_
        (E.Regime_violation
           {
             m = params.Params.m;
             k = params.Params.k;
             f = params.Params.f;
             what = "all robots may be faulty";
           })
  | Params.Ratio_one ->
      let group = Group.optimal ?alpha params in
      {
        problem;
        group;
        bound = Problem.bound problem;
        designed_ratio = 1.;
        exponential = None;
      }
  | Params.Searching ->
      let strat = Mray.make ?alpha params in
      let group =
        {
          Group.params;
          itineraries = Mray.itineraries strat;
          predicted_ratio = Mray.predicted_ratio strat;
        }
      in
      {
        problem;
        group;
        bound = Problem.bound problem;
        designed_ratio = Mray.predicted_ratio strat;
        exponential = Some strat;
      }

let trajectories t = Group.trajectories t.group

let orc_turns t =
  Option.map Search_covering.Orc.of_mray_group t.exponential

let certify t ~lambda =
  let { Params.m; k; f } = t.problem.Problem.params in
  match orc_turns t with
  | None ->
      E.raise_
        (E.Regime_violation
           { m; k; f; what = "the certificate needs the searching regime" })
  | Some turns -> (
      let n = t.problem.Problem.horizon in
      match Problem.covering t.problem with
      | Search_covering.Assigned.Line_symmetric, _ ->
          Certificate.check_line ~turns ~f ~lambda ~n ()
      | Search_covering.Assigned.Orc_setting, demand ->
          Certificate.check_orc ~turns ~demand ~lambda ~n ())
