module Sweep = Search_numerics.Sweep

type verdict =
  | Refuted_gap of { at : float; multiplicity : int; demand : int }
  | Refuted_potential of Potential.trace
  | Not_refuted of { n : float; delta : float }
  | Inconclusive of string

let run_certificate setting ~turns ~demand ~lambda ~n ~coverage =
  let k = Array.length turns in
  let mu = (lambda -. 1.) /. 2. in
  match coverage () with
  | Sweep.Gap { at; multiplicity; _ } ->
      Refuted_gap { at; multiplicity; demand }
  | Sweep.Covered -> (
      let delta = Potential.delta setting ~k ~demand ~mu in
      if delta <= 1. then Not_refuted { n; delta }
      else
        (* below the bound: build the assignment and watch the potential *)
        match Assigned.build setting ~mu ~demand ~turns ~up_to:n () with
        | Assigned.Stuck { frontier; _ } ->
            Inconclusive
              (Printf.sprintf
                 "greedy assignment stuck at frontier %g (coverage verified \
                  to %g; no conclusion)"
                 frontier n)
        | Assigned.Complete intervals ->
            let trace = Potential.analyze setting ~k ~demand ~mu intervals in
            if trace.Potential.exceeded then Refuted_potential trace
            else Not_refuted { n; delta })

let check_line ~turns ~f ~lambda ~n () =
  let k = Array.length turns in
  let s = (2 * (f + 1)) - k in
  if not (0 < s && s <= k) then
    invalid_arg "Certificate.check_line: need 0 < 2(f+1)-k <= k";
  run_certificate Assigned.Line_symmetric ~turns ~demand:s ~lambda ~n
    ~coverage:(fun () -> Symmetric.check turns ~demand:s ~lambda ~n)

let check_orc ~turns ~demand ~lambda ~n () =
  let k = Array.length turns in
  if demand <= k then invalid_arg "Certificate.check_orc: need demand > k";
  run_certificate Assigned.Orc_setting ~turns ~demand ~lambda ~n
    ~coverage:(fun () -> Orc.check turns ~demand ~lambda ~n)

(* The λ-grid refutations are independent point evaluations sharing only
   the (mutex-memoised) turning sequences, so they shard across a domain
   pool; results are re-assembled in input order, making the parallel
   path byte-identical to the sequential one. *)
let check_sharded ?jobs ~lambdas check =
  Search_exec.Pool.with_pool ?jobs (fun pool ->
      Search_exec.Par.parallel_map pool
        ~f:(fun lambda -> (lambda, check ~lambda))
        lambdas)

let check_line_sharded ?jobs ~turns ~f ~lambdas ~n () =
  check_sharded ?jobs ~lambdas (fun ~lambda ->
      check_line ~turns ~f ~lambda ~n ())

let check_orc_sharded ?jobs ~turns ~demand ~lambdas ~n () =
  check_sharded ?jobs ~lambdas (fun ~lambda ->
      check_orc ~turns ~demand ~lambda ~n ())

let lambda_grid ~lo ~hi ~count =
  if count < 1 then invalid_arg "Certificate.lambda_grid: need count >= 1";
  if lo > hi then invalid_arg "Certificate.lambda_grid: need lo <= hi";
  if count = 1 then [ 0.5 *. (lo +. hi) ]
  else
    List.init count (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (count - 1)))

let log_horizon_bound setting ~k ~demand ~lambda ?engage ?c () =
  if not (lambda > 1.) then
    invalid_arg "Certificate.log_horizon_bound: need lambda > 1";
  let mu = (lambda -. 1.) /. 2. in
  let engage = match engage with Some e -> e | None -> Float.max 1. mu in
  let s =
    match setting with
    | Assigned.Line_symmetric -> demand
    | Assigned.Orc_setting -> demand - k
  in
  if s < 1 then invalid_arg "Certificate.log_horizon_bound: effective s < 1";
  let delta = Potential.delta setting ~k ~demand ~mu in
  if delta <= 1. then infinity
  else
    let sk = float_of_int (s * k) in
    let ln_floor = -.sk *. log (mu *. engage) in
    let ln_ceiling =
      match setting with
      | Assigned.Line_symmetric -> sk *. log mu
      | Assigned.Orc_setting ->
          let c = match c with Some c -> c | None -> mu *. mu in
          (float_of_int (demand * k) *. log c) +. (sk *. log mu)
    in
    let steps = (ln_ceiling -. ln_floor) /. log delta in
    log engage +. (steps *. log mu)

let coverage_threshold_lambda ~check ~lo ~hi ?(tol = 1e-9) () =
  if not (check ~lambda:hi) then
    invalid_arg "Certificate.coverage_threshold_lambda: check fails at hi";
  if check ~lambda:lo then lo
  else
    let rec bisect lo hi =
      if hi -. lo <= tol *. Float.max 1. hi then hi
      else
        let mid = 0.5 *. (lo +. hi) in
        if check ~lambda:mid then bisect lo mid else bisect mid hi
    in
    bisect lo hi

let pp_verdict ppf = function
  | Refuted_gap { at; multiplicity; demand } ->
      Format.fprintf ppf
        "REFUTED (coverage gap): point %g covered %d < %d times" at
        multiplicity demand
  | Refuted_potential trace ->
      Format.fprintf ppf
        "REFUTED (potential): ln f reached %.4g > ceiling %.4g (delta = %.6g \
         per step, %d steps)"
        trace.Potential.max_log_potential trace.Potential.log_ceiling
        trace.Potential.delta
        (List.length trace.Potential.steps)
  | Not_refuted { n; delta } ->
      Format.fprintf ppf "NOT REFUTED on [1, %g] (delta = %.6g)" n delta
  | Inconclusive reason -> Format.fprintf ppf "INCONCLUSIVE: %s" reason
