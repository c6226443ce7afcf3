module Params = Search_bounds.Params
module Certificate = Search_covering.Certificate

type t = {
  problem : Problem.t;
  regime : Params.regime;
  bound : float;
  designed_ratio : float;
  simulated_ratio : float;
  exact_sup : float;
  covering_ok : bool option;
  certificate_below : Certificate.verdict option;
  byzantine_transfer : float option;
}

let build ?(claimed_fraction = 0.99) problem =
  let solution = Solve.solve problem in
  let verify = Verify.verify solution in
  let params = problem.Problem.params in
  let f = params.Params.f in
  let n = problem.Problem.horizon in
  let trajectories = Solve.trajectories solution in
  let exact_sup =
    (Search_sim.Exact_adversary.worst_case trajectories ~f ~n ())
      .Search_sim.Exact_adversary.sup
  in
  let certificate_below, byzantine_transfer =
    match Params.regime params with
    | Params.Searching ->
        let lambda = claimed_fraction *. Problem.bound problem in
        (* the Byzantine transfer B >= A is a result on the line *)
        let byz =
          match Problem.covering problem with
          | Search_covering.Assigned.Line_symmetric, _ ->
              Some (Search_bounds.Byzantine.lower_bound ~k:params.Params.k ~f)
          | Search_covering.Assigned.Orc_setting, _ -> None
        in
        (Some (Solve.certify solution ~lambda), byz)
    | Params.Ratio_one | Params.Unsolvable -> (None, None)
  in
  {
    problem;
    regime = Params.regime params;
    bound = Problem.bound problem;
    designed_ratio = solution.Solve.designed_ratio;
    simulated_ratio = verify.Verify.simulated_ratio;
    exact_sup;
    covering_ok = verify.Verify.covering_ok;
    certificate_below;
    byzantine_transfer;
  }

let to_markdown t =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let { Params.m; k; f } = t.problem.Problem.params in
  p "# Instance report: m = %d rays, k = %d robots, f = %d crash faults" m k f;
  p "";
  p "- regime: **%s**" (Params.regime_to_string t.regime);
  p "- evaluation horizon: targets in [1, %g]" t.problem.Problem.horizon;
  p "";
  p "## Competitive ratio";
  p "";
  p "| quantity | value |";
  p "|---|---|";
  p "| closed-form optimum (Theorems 1/6) | %.9f |" t.bound;
  p "| designed ratio of the synthesized strategy | %.9f |" t.designed_ratio;
  p "| simulated worst case (bracketing scan) | %.9f |" t.simulated_ratio;
  p "| exact supremum (piecewise-affine analysis) | %.9f |" t.exact_sup;
  (match t.covering_ok with
  | Some ok -> p "| ORC covering at the designed ratio | %s |" (if ok then "verified" else "**FAILED**")
  | None -> ());
  (match t.byzantine_transfer with
  | Some b -> p "| Byzantine transfer: B(%d,%d) >= | %.9f |" k f b
  | None -> ());
  (match t.certificate_below with
  | Some v ->
      p "";
      p "## Lower-bound certificate (at 99%% of the bound)";
      p "";
      p "```";
      p "%s" (Format.asprintf "%a" Certificate.pp_verdict v);
      p "```"
  | None -> ());
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf
    "%a: bound %.6f, simulated %.6f, exact %.6f%s" Problem.pp t.problem
    t.bound t.simulated_ratio t.exact_sup
    (match t.certificate_below with
    | Some (Certificate.Refuted_gap _ | Certificate.Refuted_potential _) ->
        ", sub-bound claim refuted"
    | Some _ -> ", sub-bound claim NOT refuted"
    | None -> "")
