module Adversary = Search_sim.Adversary
module Sweep = Search_numerics.Sweep
module Table = Search_numerics.Table

type report = {
  solution : Solve.solution;
  simulated_ratio : float;
  witness : Search_sim.World.point;
  simulation_ok : bool;
  covering_ok : bool option;
  gap_to_bound : float;
}

let verify ?(tolerance = 1e-6) solution =
  let problem = solution.Solve.problem in
  let params = problem.Problem.params in
  let f = params.Search_bounds.Params.f in
  let n = problem.Problem.horizon in
  let trajectories = Solve.trajectories solution in
  let outcome = Adversary.worst_case trajectories ~f ~n () in
  let designed = solution.Solve.designed_ratio in
  let slack = tolerance *. Float.max 1. designed in
  let simulated_ratio = outcome.Adversary.ratio in
  let covering_ok =
    match Solve.orc_turns solution with
    | None -> None
    | Some turns ->
        let q = Search_bounds.Params.q params in
        let verdict =
          Search_covering.Orc.check turns ~demand:q
            ~lambda:(designed +. slack) ~n
        in
        Some (match verdict with Sweep.Covered -> true | Sweep.Gap _ -> false)
  in
  {
    solution;
    simulated_ratio;
    witness = outcome.Adversary.witness;
    simulation_ok = simulated_ratio <= designed +. slack;
    covering_ok;
    gap_to_bound = designed -. solution.Solve.bound;
  }

let sweep_row problem ~samples i =
  let { Search_bounds.Params.k; f; _ } = problem.Problem.params in
  let q = Search_bounds.Params.q problem.Problem.params in
  let t = float_of_int i /. float_of_int (samples - 1) in
  let alpha = Search_bounds.Formulas.alpha_star ~q ~k *. (0.7 +. (0.8 *. t)) in
  if alpha > 1.001 then begin
    let solution = Solve.solve ~alpha problem in
    let outcome =
      Adversary.worst_case (Solve.trajectories solution) ~f
        ~n:problem.Problem.horizon ()
    in
    Some
      [
        Table.cell_f ~decimals:4 alpha;
        Table.cell_f ~decimals:4 solution.Solve.designed_ratio;
        Table.cell_f ~decimals:4 outcome.Adversary.ratio;
      ]
  end
  else None

let all_ok r =
  r.simulation_ok && (match r.covering_ok with None -> true | Some b -> b)

let pp ppf r =
  Format.fprintf ppf
    "@[<v>problem: %a@,bound: %.6f  designed: %.6f  simulated: %.6f@,\
     worst target: %a@,simulation: %s  covering: %s@]"
    Problem.pp r.solution.Solve.problem r.solution.Solve.bound
    r.solution.Solve.designed_ratio r.simulated_ratio
    Search_sim.World.pp_point r.witness
    (if r.simulation_ok then "ok" else "VIOLATED")
    (match r.covering_ok with
    | None -> "n/a"
    | Some true -> "ok"
    | Some false -> "VIOLATED")
