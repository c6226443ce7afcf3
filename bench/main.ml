(* Experiment harness: regenerates every quantitative claim of the paper
   (see EXPERIMENTS.md for the per-experiment index), then runs Bechamel
   micro-benchmarks of the core primitives.

   The paper is pure theory and has no numbered tables or figures; the
   experiment identifiers T1-T7 (tables) and F1-F5 (figure-like series)
   are defined in DESIGN.md and each corresponds to one quantitative
   claim of the paper.

   The grid rows, λ-sweeps and stochastic trials are embarrassingly
   parallel, so they run on a faulty_search.exec domain pool ([--jobs N],
   default the recommended domain count).  Determinism contract: rows are
   re-assembled in input order and stochastic shards carry split PRNGs,
   so the tables are byte-identical at every job count; only the
   wall-clock numbers (the MICRO section and results/bench_timings.json)
   vary. *)

module FS = Faulty_search
module T = FS.Table
module Pool = FS.Pool
module Par = FS.Par

let section id title =
  Printf.printf "\n=== %s: %s ===\n\n" id title

(* ------------------------------------------------------------------ *)
(* Graceful degradation: each grid cell of the row-producing
   experiments runs under the supervised runtime.  A failing cell
   renders as a marked "!ERR <tag>" row instead of aborting the whole
   suite, the error goes to stderr, and the process exits 3 at the end
   if any cell failed (see bin/search_cli.ml for the exit-code
   contract).  [--chaos-seed]/[--retries] drive the fault-injection
   drill: with retries > Chaos.max_faults the output must be
   byte-identical to a fault-free run. *)

(* The command line is parsed once, at startup: every grid cell runs
   under the one supervision spec built here from it. *)
let jobs, bench_spec =
  let jobs = ref (Pool.default_jobs ()) in
  let chaos_seed = ref None in
  let retries = ref 0 in
  Arg.parse
    [
      ( "--jobs",
        Arg.Set_int jobs,
        "N  run the experiment grids on N domains (default: the \
         recommended domain count; tables are byte-identical for any N)" );
      ( "--chaos-seed",
        Arg.Int (fun s -> chaos_seed := Some s),
        "SEED  inject deterministic faults into the grid cells (drill: \
         with enough --retries the tables are byte-identical to a \
         fault-free run)" );
      ( "--retries",
        Arg.Set_int retries,
        "R  retry each failed grid cell up to R times (attempts = R+1, \
         each retried at once)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "main.exe [--jobs N]";
  if !jobs < 1 then begin
    prerr_endline "main.exe: --jobs must be >= 1";
    exit 2
  end;
  let chaos =
    match !chaos_seed with
    | None -> FS.Chaos.disabled
    | Some seed -> FS.Chaos.make ~seed ()
  in
  let retry =
    if !retries <= 0 then FS.Retry.none
    else FS.Retry.immediate ~attempts:(!retries + 1)
  in
  (!jobs, { FS.Supervise.default with chaos; retry })

let failed_cells = Atomic.make 0

let err_row ~id ~width err =
  Atomic.incr failed_cells;
  Printf.eprintf "bench: %s cell failed: %s\n%!" id
    (FS.Search_error.to_string err);
  ("!ERR " ^ FS.Search_error.tag err) :: List.init (width - 1) (fun _ -> "-")

(* supervised counterpart of [Par.parallel_map] for row-valued cells *)
let guarded pool ~id ~width ~f items =
  FS.Supervise.map pool ~spec:bench_spec
    ~task:(fun i _ -> Printf.sprintf "%s#%d" id i)
    ~f:(fun _meter x -> f x)
    items
  |> List.map (function
       | Ok row -> row
       | Error err -> err_row ~id ~width err)

(* variant for cells that may legitimately produce no row (F2) *)
let guarded_opt pool ~id ~width ~f items =
  FS.Supervise.map pool ~spec:bench_spec
    ~task:(fun i _ -> Printf.sprintf "%s#%d" id i)
    ~f:(fun _meter x -> f x)
    items
  |> List.map (function
       | Ok row -> row
       | Error err -> Some (err_row ~id ~width err))

let simulate_ratio ?alpha ~m ~k ~f ~n () =
  let problem = FS.Problem.make ~m ~k ~f ~horizon:n () in
  let solution = FS.Solve.solve ?alpha problem in
  let trajectories = FS.Solve.trajectories solution in
  (FS.Adversary.worst_case trajectories ~f ~n ()).FS.Adversary.ratio

(* ------------------------------------------------------------------ *)
(* T1 — Theorem 1: A(k, f) on the line.                               *)

let t1_line_ratio pool =
  section "T1" "Theorem 1: tight competitive ratio A(k, f) on the line";
  let tbl =
    T.create
      [
        ("k", T.Right); ("f", T.Right); ("s", T.Right); ("rho", T.Right);
        ("A(k,f) formula", T.Right); ("simulated", T.Right);
        ("exact sup", T.Right); ("covering@A", T.Left);
        ("refuted@0.99A", T.Left);
      ]
  in
  let n = 2000. in
  guarded pool ~id:"T1" ~width:9
    ~f:(fun (k, f) ->
      let p = FS.Params.line ~k ~f in
      let bound = FS.Formulas.a_line ~k ~f in
      let simulated = simulate_ratio ~m:2 ~k ~f ~n () in
      let exact =
        let problem = FS.Problem.make ~m:2 ~k ~f ~horizon:n () in
        let trs = FS.Solve.trajectories (FS.Solve.solve problem) in
        (FS.Exact_adversary.worst_case trs ~f ~n ()).FS.Exact_adversary.sup
      in
      let strat = FS.Mray_exponential.make p in
      let turns = FS.Orc_cover.of_mray_group strat in
      let s = FS.Params.s p in
      let covering =
        match
          FS.Symmetric_cover.check turns ~demand:s ~lambda:(bound +. 1e-6) ~n
        with
        | FS.Sweep.Covered -> "yes"
        | FS.Sweep.Gap _ -> "NO"
      in
      let refuted =
        match
          FS.Certificate.check_line ~turns ~f ~lambda:(0.99 *. bound) ~n ()
        with
        | FS.Certificate.Refuted_gap _ | FS.Certificate.Refuted_potential _ ->
            "yes"
        | FS.Certificate.Not_refuted _ | FS.Certificate.Inconclusive _ -> "NO"
      in
      [
        T.cell_i k; T.cell_i f; T.cell_i s;
        T.cell_f ~decimals:4 (FS.Params.rho p);
        T.cell_f ~decimals:6 bound; T.cell_f ~decimals:6 simulated;
        T.cell_f ~decimals:6 exact; covering; refuted;
      ])
    [ (1, 0); (2, 1); (3, 1); (3, 2); (4, 2); (5, 2); (4, 3); (5, 3); (6, 3); (7, 4) ]
  |> List.iter (T.add_row tbl);
  T.print tbl;
  print_endline
    "shape check: simulated <= formula everywhere, equality approached;\n\
     covering holds exactly at the bound, refutation fires 1% below."

(* ------------------------------------------------------------------ *)
(* T2 — Byzantine transfer: improvements over ISAAC'16.                *)

let t2_byzantine () =
  section "T2" "Byzantine lower bounds via the crash transfer (Section 1)";
  let tbl =
    T.create
      [
        ("k", T.Right); ("f", T.Right); ("ISAAC'16 bound", T.Right);
        ("crash transfer B >=", T.Right); ("improvement", T.Right);
      ]
  in
  List.iter
    (fun (p : FS.Byzantine.prior) ->
      let nb = FS.Byzantine.lower_bound ~k:p.FS.Byzantine.k ~f:p.FS.Byzantine.f in
      let prior =
        match p.FS.Byzantine.isaac16_bound with
        | None -> "(none quoted)"
        | Some b -> T.cell_f ~decimals:2 b
      in
      let improvement =
        match FS.Byzantine.improvement p with
        | None -> "-"
        | Some d -> T.cell_f ~decimals:4 d
      in
      T.add_row tbl
        [
          T.cell_i p.FS.Byzantine.k; T.cell_i p.FS.Byzantine.f; prior;
          T.cell_f ~decimals:6 nb; improvement;
        ])
    FS.Byzantine.isaac16_priors;
  T.print tbl;
  Printf.printf "B(3,1) closed form: (8/3) 4^(1/3) + 1 = %.6f\n"
    FS.Byzantine.b31_exact

(* ------------------------------------------------------------------ *)
(* F1 — the lambda(rho) curve.                                        *)

let f1_rho_curve () =
  section "F1" "lambda as a function of rho = m(f+1)/k (eq. 1 / eq. 9)";
  let tbl = T.create [ ("rho", T.Right); ("lambda", T.Right) ] in
  let samples = 16 in
  for i = 0 to samples do
    let rho = 1. +. (3. *. float_of_int i /. float_of_int samples) in
    T.add_row tbl
      [ T.cell_f ~decimals:4 rho; T.cell_f ~decimals:6 (FS.Asymptotics.lambda_of_rho rho) ]
  done;
  T.print tbl;
  Printf.printf
    "endpoints: lambda(1+) = %.1f (robots match the demand), lambda(2) = %.1f \
     (classic cow path)\n"
    (FS.Asymptotics.lambda_of_rho 1.)
    (FS.Asymptotics.lambda_of_rho 2.)

(* ------------------------------------------------------------------ *)
(* T3 — Theorem 6: A(m, k, f) on m rays.                              *)

let t3_mray_ratio pool =
  section "T3" "Theorem 6: A(m, k, f) on m rays";
  let tbl =
    T.create
      [
        ("m", T.Right); ("k", T.Right); ("f", T.Right); ("q", T.Right);
        ("formula", T.Right); ("simulated", T.Right); ("ORC q-fold@A", T.Left);
        ("integer theorem", T.Left);
      ]
  in
  let n = 500. in
  guarded pool ~id:"T3" ~width:8
    ~f:(fun (m, k, f) ->
      let p = FS.Params.make ~m ~k ~f in
      let bound = FS.Formulas.a_mray ~m ~k ~f in
      let simulated = simulate_ratio ~m ~k ~f ~n () in
      let strat = FS.Mray_exponential.make p in
      let turns = FS.Orc_cover.of_mray_group strat in
      let q = FS.Params.q p in
      let covering =
        match FS.Orc_cover.check turns ~demand:q ~lambda:(bound +. 1e-6) ~n with
        | FS.Sweep.Covered -> "yes"
        | FS.Sweep.Gap _ -> "NO"
      in
      (* the horizon-free residue check of the assignment's (f+1)-fold
         covering claim, in exact integer arithmetic *)
      let theorem =
        if FS.Mray_exponential.coverage_theorem_holds strat then "exact (f+1)-fold"
        else "VIOLATED"
      in
      [
        T.cell_i m; T.cell_i k; T.cell_i f; T.cell_i q;
        T.cell_f ~decimals:6 bound; T.cell_f ~decimals:6 simulated; covering;
        theorem;
      ])
    [
      (3, 1, 0); (3, 2, 0); (3, 2, 1); (3, 4, 1); (4, 3, 0); (4, 3, 1);
      (4, 2, 0); (5, 4, 0); (5, 3, 1); (6, 5, 0);
    ]
  |> List.iter (T.add_row tbl);
  T.print tbl

(* ------------------------------------------------------------------ *)
(* T4 — f = 0: the resolved open question on parallel ray search.     *)

let t4_parallel_rays pool =
  section "T4"
    "f = 0: optimal parallel search on m rays (open since Baeza-Yates et \
     al.; cyclic-only bound by Bernstein et al.)";
  let tbl =
    T.create
      ([ ("m \\ k", T.Right) ]
      @ List.map (fun k -> (Printf.sprintf "k=%d" k, T.Right)) [ 1; 2; 3; 4; 5 ])
  in
  List.iter
    (fun m ->
      let row =
        Printf.sprintf "%d" m
        :: List.map
             (fun k ->
               if k >= m then "1"
               else T.cell_f ~decimals:4 (FS.Formulas.a_mray ~m ~k ~f:0))
             [ 1; 2; 3; 4; 5 ]
      in
      T.add_row tbl row)
    [ 2; 3; 4; 5; 6; 7; 8 ];
  T.print tbl;
  (* the cyclic strategy attains the bound: Theorem 6 proves no strategy
     class restriction was needed *)
  let tbl2 =
    T.create
      [
        ("m", T.Right); ("k", T.Right); ("formula", T.Right);
        ("cyclic simulated", T.Right);
      ]
  in
  guarded pool ~id:"T4" ~width:4
    ~f:(fun (m, k) ->
      let trs =
        Array.map FS.Trajectory.compile (FS.Cyclic.itineraries ~m ~k ())
      in
      let out = FS.Adversary.worst_case trs ~f:0 ~n:400. () in
      [
        T.cell_i m; T.cell_i k;
        T.cell_f ~decimals:6 (FS.Formulas.a_mray ~m ~k ~f:0);
        T.cell_f ~decimals:6 out.FS.Adversary.ratio;
      ])
    [ (3, 2); (4, 2); (4, 3); (5, 3); (6, 4) ]
  |> List.iter (T.add_row tbl2);
  print_endline "";
  T.print tbl2

(* ------------------------------------------------------------------ *)
(* F2 — ratio vs alpha, minimum at alpha*.                            *)

let f2_alpha_sweep pool =
  section "F2" "exponential strategy: ratio vs base alpha (appendix optimum)";
  List.iter
    (fun (m, k, f) ->
      let q = m * (f + 1) in
      let a_star = FS.Formulas.alpha_star ~q ~k in
      Printf.printf "(m=%d, k=%d, f=%d): alpha* = %.6f, lambda0 = %.6f\n" m k f
        a_star (FS.Formulas.lambda0 ~q ~k);
      let tbl =
        T.create
          [
            ("alpha", T.Right); ("predicted", T.Right); ("simulated", T.Right);
          ]
      in
      guarded_opt pool
        ~id:(Printf.sprintf "F2(%d,%d,%d)" m k f)
        ~width:3
        ~f:(fun i ->
          let alpha = a_star *. (0.75 +. (0.5 *. float_of_int i /. 8.)) in
          if alpha > 1.01 then
            let predicted = FS.Formulas.exponential_ratio ~q ~k ~alpha in
            let simulated = simulate_ratio ~alpha ~m ~k ~f ~n:400. () in
            Some
              [
                T.cell_f ~decimals:4 alpha; T.cell_f ~decimals:4 predicted;
                T.cell_f ~decimals:4 simulated;
              ]
          else None)
        (List.init 9 Fun.id)
      |> List.iter (Option.iter (T.add_row tbl));
      T.print tbl;
      (* numeric minimisation of the simulated ratio recovers alpha* *)
      let argmin, _ =
        Search_numerics.Minimize.grid_then_golden ~samples:24 ~tol:1e-4
          ~f:(fun alpha ->
            if alpha <= 1.01 then infinity
            else FS.Formulas.exponential_ratio ~q ~k ~alpha)
          (Float.max 1.02 (a_star *. 0.6))
          (a_star *. 1.6)
      in
      Printf.printf "numeric argmin of the predicted ratio: %.6f (alpha* = %.6f)\n\n"
        argmin a_star)
    [ (2, 3, 1); (3, 2, 0) ]

(* ------------------------------------------------------------------ *)
(* F3 — potential-function growth.                                    *)

let f3_potential_growth () =
  section "F3"
    "potential function along the assignment (eqs. 7/8: growth below the \
     bound, flat at it)";
  (* (a) the optimal (3,1) strategy at exactly lambda0: delta = 1, the
     potential stays below its ceiling *)
  let p = FS.Params.line ~k:3 ~f:1 in
  let lam0 = FS.Formulas.of_params p in
  let mu0 = (lam0 -. 1.) /. 2. in
  let turns = FS.Orc_cover.of_mray_group (FS.Mray_exponential.make p) in
  (match
     FS.Assigned.build FS.Assigned.Line_symmetric ~mu:mu0 ~demand:1 ~turns
       ~up_to:300. ()
   with
  | FS.Assigned.Complete ivs ->
      let tr =
        FS.Potential.analyze FS.Assigned.Line_symmetric ~k:3 ~demand:1 ~mu:mu0
          ivs
      in
      Printf.printf
        "(k=3, f=1) at lambda0 = %.4f: delta = %.6f, %d steps, max ln f = \
         %.4f <= ceiling %.4f (%s)\n"
        lam0 tr.FS.Potential.delta
        (List.length tr.FS.Potential.steps)
        tr.FS.Potential.max_log_potential tr.FS.Potential.log_ceiling
        (if tr.FS.Potential.exceeded then "EXCEEDED" else "bounded")
  | FS.Assigned.Stuck { frontier; _ } ->
      Printf.printf "assignment stuck at %g (unexpected)\n" frontier);
  (* (b) the best finite-horizon single robot at lambda = 8 < 9: turns are
     chosen greedily maximal (t_i = mu t_{i-1} - sum_{<i}, the largest next
     turn keeping the cover contiguous); below the bound this recursion
     dies in finitely many steps — the executable content of Theorem 3.
     Every potential step multiplies f by >= delta > 1; print the trace. *)
  let lambda = 8. in
  let mu = (lambda -. 1.) /. 2. in
  let greedy = FS.Frontier.line_single ~lambda in
  let greedy_pad = greedy.FS.Frontier.turns in
  let last_turn = greedy.FS.Frontier.horizon in
  let padded =
    FS.Turning.of_list_then greedy_pad (fun i ->
        last_turn *. (2. ** float_of_int (i - List.length greedy_pad)))
  in
  let died_at =
    FS.Symmetric_cover.max_covered [| padded |] ~demand:1 ~lambda ~n:1e6
  in
  Printf.printf
    "\nsingle robot, lambda = %.1f < 9 (mu = %.2f): greedy-maximal turns die \
     at x = %.4f after %d turns\n"
    lambda mu died_at (List.length greedy_pad);
  (match
     FS.Assigned.build FS.Assigned.Line_symmetric ~mu ~demand:1
       ~turns:[| padded |]
       ~up_to:(died_at *. 0.999)
       ()
   with
  | FS.Assigned.Complete ivs ->
      let tr =
        FS.Potential.analyze FS.Assigned.Line_symmetric ~k:1 ~demand:1 ~mu ivs
      in
      let tbl =
        T.create
          [
            ("step", T.Right); ("frontier", T.Right); ("turn", T.Right);
            ("ln f", T.Right); ("ratio", T.Right);
          ]
      in
      List.iter
        (fun (st : FS.Potential.step) ->
          T.add_row tbl
            [
              T.cell_i st.FS.Potential.index;
              T.cell_f ~decimals:4 st.FS.Potential.frontier;
              T.cell_f ~decimals:4 st.FS.Potential.interval.FS.Assigned.turn;
              (match st.FS.Potential.log_potential with
              | Some v -> T.cell_f ~decimals:4 v
              | None -> "-");
              (match st.FS.Potential.step_ratio with
              | Some v -> T.cell_f ~decimals:4 v
              | None -> "-");
            ])
        tr.FS.Potential.steps;
      T.print tbl;
      Printf.printf
        "delta = %.4f: every ratio >= delta; ceiling ln f <= %.4f caps the \
         number of steps, hence the coverable horizon\n"
        tr.FS.Potential.delta tr.FS.Potential.log_ceiling
  | FS.Assigned.Stuck { frontier; _ } ->
      Printf.printf "assignment stuck at %g (unexpected)\n" frontier);
  (* (c) the theoretical horizon bound below lambda0 *)
  let tbl =
    T.create
      [
        ("lambda", T.Right); ("ln N_max (theory)", T.Right);
        ("log10 N_max", T.Right);
      ]
  in
  List.iter
    (fun lambda ->
      let lhb =
        FS.Certificate.log_horizon_bound FS.Assigned.Line_symmetric ~k:1
          ~demand:1 ~lambda ()
      in
      T.add_row tbl
        [
          T.cell_f ~decimals:2 lambda;
          (if Float.equal lhb infinity then "inf"
           else T.cell_f ~decimals:2 lhb);
          (if Float.equal lhb infinity then "inf"
           else T.cell_f ~decimals:2 (lhb /. log 10.));
        ])
    [ 7.0; 8.0; 8.5; 8.9; 8.99; 9.0; 9.1 ];
  print_endline "";
  T.print tbl

(* ------------------------------------------------------------------ *)
(* T5 — the fractional relaxation C(eta).                             *)

let t5_fractional pool =
  section "T5" "fractional one-ray retrieval: C(eta) via rational approximation (eq. 11)";
  Par.parallel_map pool
    ~f:(fun eta ->
      let limit = FS.Fractional.c_eta eta in
      let approximations = FS.Fractional.upper_approximations ~eta ~count:7 in
      let lower = FS.Fractional.lower_bound_eps ~eta ~eps:1e-3 in
      (eta, limit, approximations, lower))
    [ 1.5; 2.0; Float.exp 1.; 3.7 ]
  |> List.iter (fun (eta, limit, approximations, lower) ->
         Printf.printf "eta = %.6f: C(eta) = %.6f\n" eta limit;
         let tbl =
           T.create
             [
               ("q_i/k_i", T.Left); ("value", T.Right);
               ("lambda0(q_i,k_i)", T.Right); ("excess over C(eta)", T.Right);
             ]
         in
         List.iter
           (fun (r, v) ->
             T.add_row tbl
               [
                 Format.asprintf "%a" FS.Rational.pp r;
                 T.cell_f ~decimals:6 (FS.Rational.to_float r);
                 T.cell_f ~decimals:6 v;
                 T.cell_f ~decimals:6 (v -. limit);
               ])
           approximations;
         T.print tbl;
         Printf.printf "lower bound at eps=1e-3: %.6f (deficit %.6f)\n\n" lower
           (limit -. lower))

(* ------------------------------------------------------------------ *)
(* T6 — phase diagram of the regimes.                                 *)

let t6_phase () =
  section "T6" "regimes: unsolvable (x), ratio-one (1), searching (ratio shown)";
  List.iter
    (fun m ->
      Printf.printf "m = %d:\n" m;
      let tbl =
        T.create
          ([ ("k \\ f", T.Right) ]
          @ List.map (fun f -> (Printf.sprintf "f=%d" f, T.Right)) [ 0; 1; 2; 3 ])
      in
      for k = 1 to 8 do
        let row =
          string_of_int k
          :: List.map
               (fun f ->
                 if f > k then "-"
                 else
                   match FS.Params.regime (FS.Params.make ~m ~k ~f) with
                   | FS.Params.Unsolvable -> "x"
                   | FS.Params.Ratio_one -> "1"
                   | FS.Params.Searching ->
                       T.cell_f ~decimals:2 (FS.Formulas.a_mray ~m ~k ~f))
               [ 0; 1; 2; 3 ]
        in
        T.add_row tbl row
      done;
      T.print tbl;
      print_endline "")
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* T7 — classical baselines as special cases.                         *)

let t7_classics pool =
  section "T7" "classical anchors: single-robot search and baseline comparisons";
  let tbl =
    T.create
      [
        ("m", T.Right); ("formula 1+2m^m/(m-1)^(m-1)", T.Right);
        ("simulated", T.Right);
      ]
  in
  guarded pool ~id:"T7" ~width:3
    ~f:(fun m ->
      let tr = [| FS.Trajectory.compile (FS.Cyclic.single_robot ~m ()) |] in
      let out = FS.Adversary.worst_case tr ~f:0 ~n:400. () in
      [
        T.cell_i m;
        T.cell_f ~decimals:5 (FS.Formulas.single_robot_mray ~m);
        T.cell_f ~decimals:5 out.FS.Adversary.ratio;
      ])
    [ 2; 3; 4; 5; 6 ]
  |> List.iter (T.add_row tbl);
  T.print tbl;
  (* baselines vs optimal on the line with faults *)
  print_endline "";
  let tbl2 =
    T.create
      [
        ("instance", T.Left); ("replicated doubling", T.Right);
        ("optimal exponential", T.Right); ("theory", T.Right);
      ]
  in
  guarded pool ~id:"T7b" ~width:4
    ~f:(fun (k, f) ->
      let naive =
        Array.map FS.Trajectory.compile (FS.Baseline.replicated_doubling ~k)
      in
      let naive_ratio =
        (FS.Adversary.worst_case naive ~f ~n:500. ()).FS.Adversary.ratio
      in
      let optimal = simulate_ratio ~m:2 ~k ~f ~n:500. () in
      [
        Printf.sprintf "k=%d f=%d" k f;
        T.cell_f ~decimals:4 naive_ratio;
        T.cell_f ~decimals:4 optimal;
        T.cell_f ~decimals:4 (FS.Formulas.a_line ~k ~f);
      ])
    [ (3, 1); (5, 2); (7, 3) ]
  |> List.iter (T.add_row tbl2);
  T.print tbl2;
  print_endline
    "shape check: replication is stuck at 9; the optimal strategy beats it\n\
     whenever rho < 2 and approaches it as rho -> 2."

(* ------------------------------------------------------------------ *)
(* F4 — horizon convergence of the simulated supremum.                *)

let f4_horizon pool =
  section "F4" "finite-horizon sup-ratio converges to the bound from below";
  let tbl =
    T.create
      [
        ("instance", T.Left); ("N", T.Right); ("sup ratio on [1,N]", T.Right);
        ("bound - sup", T.Right);
      ]
  in
  (* the (instance, horizon) grid flattened row-major: the long-horizon
     points dominate the suite's sequential wall-clock *)
  FS.Shard.grid2 [ (2, 3, 1); (3, 2, 0) ] [ 1e2; 1e3; 1e4; 1e5 ]
  |> guarded pool ~id:"F4" ~width:4 ~f:(fun ((m, k, f), n) ->
         let bound = FS.Formulas.a_mray ~m ~k ~f in
         let r = simulate_ratio ~m ~k ~f ~n () in
         [
           Printf.sprintf "m=%d k=%d f=%d" m k f;
           Printf.sprintf "%.0e" n;
           T.cell_f ~decimals:6 r;
           Printf.sprintf "%.2e" (bound -. r);
         ])
  |> List.iter (T.add_row tbl);
  T.print tbl

(* ------------------------------------------------------------------ *)
(* F5 — the coverage threshold equals the bound.                      *)

let f5_threshold pool =
  section "F5"
    "bisection: the lambda at which the optimal strategy's covering kicks \
     in equals lambda0";
  let tbl =
    T.create
      [
        ("k", T.Right); ("f", T.Right); ("lambda0", T.Right);
        ("coverage threshold", T.Right); ("difference", T.Right);
      ]
  in
  guarded pool ~id:"F5" ~width:5
    ~f:(fun (k, f) ->
      let p = FS.Params.line ~k ~f in
      let lam0 = FS.Formulas.of_params p in
      let turns = FS.Orc_cover.of_mray_group (FS.Mray_exponential.make p) in
      let s = FS.Params.s p in
      let check ~lambda =
        FS.Symmetric_cover.check turns ~demand:s ~lambda ~n:500.
        = FS.Sweep.Covered
      in
      let thr =
        FS.Certificate.coverage_threshold_lambda ~check ~lo:(0.5 *. lam0)
          ~hi:(lam0 +. 1.) ()
      in
      [
        T.cell_i k; T.cell_i f; T.cell_f ~decimals:6 lam0;
        T.cell_f ~decimals:6 thr;
        Printf.sprintf "%.2e" (Float.abs (thr -. lam0));
      ])
    [ (1, 0); (3, 1); (3, 2); (5, 3); (5, 2) ]
  |> List.iter (T.add_row tbl);
  T.print tbl

(* ------------------------------------------------------------------ *)
(* F6 — the eps-N trade-off: how far one can cover below the bound.    *)

let f6_eps_n_tradeoff pool =
  section "F6"
    "the eps-N trade-off of inequality (12): optimal finite coverage vs \
     the theoretical cap, single robot on the line";
  let tbl =
    T.create
      [
        ("lambda", T.Right); ("turns", T.Right); ("reach N*", T.Right);
        ("ln N*", T.Right); ("ln N_max (theory)", T.Right);
        ("discriminant", T.Right);
      ]
  in
  guarded pool ~id:"F6" ~width:6
    ~f:(fun lambda ->
      let r = FS.Frontier.line_single ~lambda in
      let cap =
        FS.Certificate.log_horizon_bound FS.Assigned.Line_symmetric ~k:1
          ~demand:1 ~lambda ()
      in
      [
        T.cell_f ~decimals:3 lambda;
        T.cell_i r.FS.Frontier.steps;
        Printf.sprintf "%.4g" r.FS.Frontier.horizon;
        T.cell_f ~decimals:3 (log r.FS.Frontier.horizon);
        T.cell_f ~decimals:2 cap;
        T.cell_f ~decimals:4 (FS.Frontier.characteristic_discriminant ~lambda);
      ])
    [ 5.0; 6.0; 7.0; 8.0; 8.5; 8.9; 8.99; 8.999 ]
  |> List.iter (T.add_row tbl);
  T.print tbl;
  print_endline
    "shape: both columns diverge as lambda -> 9 (the discriminant of the\n\
     greedy recursion z^2 - mu z + mu hits zero), with the construction\n\
     always below the theoretical cap; coverage below the bound is\n\
     possible but only on a bounded horizon — the quantitative Theorem 3.";
  (* multi-robot variant: the (3,1) line instance below its bound 5.2331 *)
  let tbl2 =
    T.create
      [
        ("lambda (bound 5.2331)", T.Right); ("steps", T.Right);
        ("reach N*", T.Right); ("ln N_max (theory)", T.Right);
      ]
  in
  guarded pool ~id:"F6b" ~width:4
    ~f:(fun lambda ->
      let r = FS.Frontier.multi ~lambda ~k:3 ~demand:1 () in
      let cap =
        FS.Certificate.log_horizon_bound FS.Assigned.Line_symmetric ~k:3
          ~demand:1 ~lambda ()
      in
      [
        T.cell_f ~decimals:3 lambda;
        T.cell_i r.FS.Frontier.steps;
        Printf.sprintf "%.4g" r.FS.Frontier.horizon;
        T.cell_f ~decimals:2 cap;
      ])
    [ 4.0; 4.5; 5.0; 5.2; 5.23 ]
  |> List.iter (T.add_row tbl2);
  print_endline "";
  T.print tbl2

(* ------------------------------------------------------------------ *)
(* X1 — the distance measure (Kao-Ma-Sipser-Yin, Section 3 remark).    *)

let x1_distance_measure pool =
  section "X1"
    "distance measure D/d: sequential schedules vs parallel strategies \
     charged by distance (Section 3 remark on [20])";
  let m = 4 in
  let n = 300. in
  let best_sequential k =
    let best = ref (infinity, 1.5) in
    for i = 0 to 24 do
      let alpha = 1.15 +. (0.14 *. float_of_int i) in
      let sched = FS.Work_schedule.kmsy ~alpha ~m ~k () in
      let r = (FS.Work_schedule.worst_ratio sched ~n ()).FS.Work_schedule.ratio in
      if r < fst !best then best := (r, alpha)
    done;
    !best
  in
  let tbl =
    T.create
      [
        ("k", T.Right); ("sequential D/d (best alpha)", T.Right);
        ("alpha", T.Right); ("parallel time-optimal charged k*T/d", T.Right);
      ]
  in
  guarded pool ~id:"X1" ~width:4
    ~f:(fun k ->
      let seq, alpha = best_sequential k in
      let parallel =
        if k >= m then "1 per robot"
        else
          let p = FS.Params.make ~m ~k ~f:0 in
          let trs = FS.Group.trajectories (FS.Group.optimal p) in
          T.cell_f ~decimals:4 (FS.Work_schedule.parallel_charged trs ~f:0 ~n)
      in
      [
        T.cell_i k; T.cell_f ~decimals:4 seq; T.cell_f ~decimals:3 alpha;
        parallel;
      ])
    [ 1; 2; 3 ]
  |> List.iter (T.add_row tbl);
  T.print tbl;
  Printf.printf
    "anchor: k=1 sequential equals the single-robot time bound %.4f;\n\
     shape: the sequential schedule (robots taking turns, k-1 of them\n\
     never backtracking) beats charging the time-optimal parallel\n\
     strategy by distance — 'the optimal algorithm does not really use\n\
     multiple robots simultaneously'.\n"
    (FS.Formulas.single_robot_mray ~m)

(* ------------------------------------------------------------------ *)
(* X2 — randomized cow path (Kao-Reif-Tate, cited as [21]).            *)

(* The Monte-Carlo trials are the stochastic face of the determinism
   contract: per beta, a fixed 16-shard decomposition of 4096 trials,
   each shard drawing from its own split-PRNG leaf, partial means folded
   in shard order — bit-identical at any --jobs count.  (Nested
   fan-out: the betas themselves are pool tasks.) *)
let x2_mc_shards = 16
let x2_mc_samples_per_shard = 256

let x2_mc_estimate pool ~prng ~beta ~x =
  Par.parallel_map pool
    ~f:(fun g ->
      FS.Randomized.expected_ratio_at ~beta ~x
        ~samples:x2_mc_samples_per_shard ~prng:g)
    (Array.to_list (FS.Shard.prngs ~root:prng ~n:x2_mc_shards))
  |> List.fold_left ( +. ) 0.
  |> fun sum -> sum /. float_of_int x2_mc_shards

let x2_randomized pool =
  section "X2" "randomized single-robot line search (cited as [21])";
  let beta_star = FS.Randomized.optimal_beta () in
  Printf.printf
    "beta* = %.6f (root of b ln b = b + 1), expected ratio 1 + beta* = %.6f \
     vs deterministic 9\n\n"
    beta_star
    (FS.Randomized.optimal_ratio ());
  let tbl =
    T.create
      [
        ("beta", T.Right); ("formula r(beta)", T.Right);
        ("quadrature E[T]/x at x=500", T.Right);
        ("MC 4096 trials (sharded)", T.Right);
      ]
  in
  FS.Shard.sharded_map pool ~root:(FS.Prng.make ~seed:20180723)
    ~f:(fun ~prng beta ->
      let formula = FS.Randomized.ratio_formula ~beta in
      let measured = FS.Randomized.expected_ratio_exact ~beta ~x:500. ~grid:1200 in
      let mc = x2_mc_estimate pool ~prng ~beta ~x:500. in
      [
        T.cell_f ~decimals:4 beta; T.cell_f ~decimals:5 formula;
        T.cell_f ~decimals:5 measured; T.cell_f ~decimals:5 mc;
      ])
    [ 2.0; 2.8; 3.2; beta_star; 4.0; 5.0; 6.0 ]
  |> List.iter (T.add_row tbl);
  T.print tbl;
  print_endline
    "(the quadrature sits ~2 beta/(x ln beta) below the asymptotic formula\n\
     at finite x; the minimum is at beta* in both columns; the sharded\n\
     Monte-Carlo column is bit-identical at any --jobs count)"

(* ------------------------------------------------------------------ *)
(* X3 — turn-cost ablation (Demaine-Fekete-Gal, cited as [15]).        *)

let x3_turn_cost pool =
  section "X3" "turn-cost ablation: worst ratio vs per-reversal cost c";
  let zig alpha =
    [|
      FS.Trajectory.compile
        (FS.Line_zigzag.itinerary (FS.Turning.geometric ~alpha ()));
    |]
  in
  let tbl =
    T.create
      ([ ("c", T.Right) ]
      @ List.map
          (fun a -> (Printf.sprintf "base %.1f" a, T.Right))
          [ 2.0; 3.0; 4.0 ])
  in
  guarded pool ~id:"X3" ~width:4
    ~f:(fun c ->
      T.cell_f ~decimals:1 c
      :: List.map
           (fun alpha ->
             T.cell_f ~decimals:3
               (FS.Turn_cost.worst_ratio (zig alpha) ~f:0 ~turn_cost:c
                  ~n:200. ()))
           [ 2.0; 3.0; 4.0 ])
    [ 0.; 0.5; 1.; 2.; 5.; 10.; 20. ]
  |> List.iter (T.add_row tbl);
  T.print tbl;
  print_endline
    "shape: ratios grow with c; the doubling base's advantage shrinks as c\n\
     grows (the worst case moves to a single charged reversal near x = 1)."

(* ------------------------------------------------------------------ *)
(* X4 — stochastic targets (the Bellman-Beck origin).                  *)

let x4_stochastic pool =
  section "X4" "stochastic targets: Beck quotients E[T]/E[|d|]";
  let cow = [| FS.Trajectory.compile (FS.Cyclic.doubling_cow ()) |] in
  let tbl =
    T.create
      [
        ("distribution", T.Left); ("E|d|", T.Right);
        ("doubling E[T]/E|d|", T.Right); ("sided sweep (knows dist)", T.Right);
      ]
  in
  guarded pool ~id:"X4" ~width:4
    ~f:(fun (name, d) ->
      [
        name;
        T.cell_f ~decimals:3 (FS.Stochastic.expected_distance d);
        T.cell_f ~decimals:4 (FS.Stochastic.beck_quotient cow ~f:0 d ~horizon:1e5);
        T.cell_f ~decimals:4 (FS.Stochastic.best_sided_sweep d);
      ])
    [
      ("uniform [1, 10]", FS.Stochastic.uniform_line ~cells:64 ~lo:1. ~hi:10.);
      ("uniform [1, 100]", FS.Stochastic.uniform_line ~cells:64 ~lo:1. ~hi:100.);
      ("uniform [1, 1000]", FS.Stochastic.uniform_line ~cells:64 ~lo:1. ~hi:1000.);
      ("geometric r=2, 10 terms", FS.Stochastic.geometric_line ~ratio:2. ~terms:10 ~lo:1.);
      ("point mass at 17", FS.Stochastic.point_mass (FS.World.point FS.World.line ~ray:0 ~dist:17.));
    ]
  |> List.iter (T.add_row tbl);
  T.print tbl;
  print_endline
    "shape: the worst-case-optimal doubling stays well under 9 in\n\
     expectation; a distribution-aware plan does better still — Bellman's\n\
     original question is easier than the adversarial one, and 9 is the\n\
     distribution-free limit (Beck-Newman)."

(* ------------------------------------------------------------------ *)
(* X5 — the Section 3.1 case split, executably.                        *)

let x5_induction () =
  section "X5" "Section 3.1 induction: Case 1/Case 2 split on real assignments";
  let tbl =
    T.create
      [
        ("instance", T.Left); ("intervals", T.Right);
        ("observed C", T.Right); ("case at 2C", T.Left);
        ("eps'(q,k)", T.Right);
      ]
  in
  List.iter
    (fun (k, f) ->
      let p = FS.Params.line ~k ~f in
      let lam0 = FS.Formulas.of_params p in
      let mu = (lam0 -. 1.) /. 2. in
      let q = FS.Params.q p in
      let turns = FS.Orc_cover.of_mray_group (FS.Mray_exponential.make p) in
      match
        FS.Assigned.build FS.Assigned.Orc_setting ~mu ~demand:q ~turns
          ~up_to:300. ()
      with
      | FS.Assigned.Stuck _ -> ()
      | FS.Assigned.Complete ivs ->
          let c_obs = FS.Induction.observed_c ivs in
          let case =
            match
              FS.Induction.classify ivs ~k ~demand:q ~mu ~c:(2. *. c_obs)
            with
            | FS.Induction.Case1 _ -> "Case 1"
            | FS.Induction.Case2 _ -> "Case 2"
          in
          let eps' =
            if k > 1 then T.cell_f ~decimals:5 (FS.Induction.epsilon' ~q ~k)
            else "-"
          in
          T.add_row tbl
            [
              Printf.sprintf "k=%d f=%d" k f;
              T.cell_i (List.length ivs);
              T.cell_f ~decimals:4 c_obs;
              case; eps';
            ])
    [ (3, 1); (4, 2); (5, 2); (5, 3) ];
  T.print tbl;
  (* a forced jump: verify the Case-2 consequence on the real strategy *)
  let p = FS.Params.line ~k:3 ~f:1 in
  let lam0 = FS.Formulas.of_params p in
  let mu = (lam0 -. 1.) /. 2. in
  let turns = FS.Orc_cover.of_mray_group (FS.Mray_exponential.make p) in
  (match
     FS.Assigned.build FS.Assigned.Orc_setting ~mu ~demand:4 ~turns ~up_to:300. ()
   with
  | FS.Assigned.Complete ivs -> (
      let c = FS.Induction.observed_c ivs *. 0.99 in
      match FS.Induction.jumps ivs ~c with
      | jump :: _ -> (
          match FS.Induction.verify_reduction ~turns ~jump ~mu ~demand:4 with
          | FS.Sweep.Covered ->
              Printf.printf
                "\nforced jump at robot %d (%.3f -> %.3f): the other k-1 \
                 robots do (q-1)-fold cover the jump window — the induction \
                 hypothesis's premise holds\n"
                jump.FS.Induction.robot jump.FS.Induction.from_left
                jump.FS.Induction.to_left
          | FS.Sweep.Gap { at; _ } ->
              Printf.printf "\nunexpected reduced-coverage gap at %g\n" at)
      | [] -> ())
  | FS.Assigned.Stuck _ -> ())

(* ------------------------------------------------------------------ *)
(* CSV series for the figure-shaped experiments.                       *)

let write_csv_series pool =
  let dir = "results" in
  (* F1 *)
  let rows =
    List.init 61 (fun i ->
        let rho = 1. +. (0.05 *. float_of_int i) in
        [ FS.Csv_out.float_cell rho;
          FS.Csv_out.float_cell (FS.Asymptotics.lambda_of_rho rho) ])
  in
  FS.Csv_out.write ~path:(Filename.concat dir "f1_rho_curve.csv")
    ~header:[ "rho"; "lambda" ] ~rows;
  (* F2 *)
  let q = 4 and k = 3 in
  let a_star = FS.Formulas.alpha_star ~q ~k in
  let rows =
    List.init 41 (fun i ->
        let alpha = a_star *. (0.7 +. (0.6 *. float_of_int i /. 40.)) in
        [ FS.Csv_out.float_cell alpha;
          FS.Csv_out.float_cell (FS.Formulas.exponential_ratio ~q ~k ~alpha) ])
  in
  FS.Csv_out.write ~path:(Filename.concat dir "f2_alpha_sweep_k3_f1.csv")
    ~header:[ "alpha"; "ratio" ] ~rows;
  (* F4 *)
  let rows =
    Par.parallel_map pool
      ~f:(fun n ->
        let r = simulate_ratio ~m:2 ~k:3 ~f:1 ~n () in
        [ FS.Csv_out.float_cell n; FS.Csv_out.float_cell r ])
      [ 10.; 30.; 100.; 300.; 1000.; 3000.; 10000. ]
  in
  FS.Csv_out.write ~path:(Filename.concat dir "f4_horizon_k3_f1.csv")
    ~header:[ "n"; "sup_ratio" ] ~rows;
  Printf.printf "\n(csv series written under %s/)\n" dir

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)

let micro_benchmarks () =
  section "MICRO" "Bechamel micro-benchmarks of the core primitives";
  let open Bechamel in
  let p = FS.Params.line ~k:3 ~f:1 in
  let lam0 = FS.Formulas.of_params p in
  let strat = FS.Mray_exponential.make p in
  let make_turns () = FS.Orc_cover.of_mray_group strat in
  let tests =
    Test.make_grouped ~name:"primitives"
      [
        Test.make ~name:"formulas/a_mray"
          (Staged.stage (fun () -> FS.Formulas.a_mray ~m:3 ~k:2 ~f:1));
        Test.make ~name:"sweep/check-coverage-n100"
          (Staged.stage (fun () ->
               let turns = make_turns () in
               FS.Symmetric_cover.check turns ~demand:1
                 ~lambda:(lam0 +. 1e-6) ~n:100.));
        Test.make ~name:"assigned/build-n50"
          (Staged.stage (fun () ->
               let turns = make_turns () in
               FS.Assigned.build FS.Assigned.Orc_setting
                 ~mu:((lam0 -. 1.) /. 2.)
                 ~demand:4 ~turns ~up_to:50. ()));
        Test.make ~name:"trajectory/first-visit"
          (Staged.stage
             (let tr =
                FS.Trajectory.compile (FS.Mray_exponential.itinerary strat ~robot:0)
              in
              let target = FS.World.point FS.World.line ~ray:0 ~dist:37.3 in
              fun () -> FS.Trajectory.first_visit tr ~target ~horizon:1e4));
        Test.make ~name:"adversary/worst-case-n50"
          (Staged.stage (fun () ->
               let trs =
                 Array.map FS.Trajectory.compile
                   (FS.Mray_exponential.itineraries strat)
               in
               FS.Adversary.worst_case trs ~f:1 ~n:50. ()));
        Test.make ~name:"adversary/exact-n50"
          (Staged.stage (fun () ->
               let trs =
                 Array.map FS.Trajectory.compile
                   (FS.Mray_exponential.itineraries strat)
               in
               FS.Exact_adversary.worst_case trs ~f:1 ~n:50. ()));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let tbl = T.create [ ("benchmark", T.Left); ("time/run", T.Right) ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some (v :: _) -> Some v
        | Some [] | None -> None
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      let cell =
        match ns with
        | None -> "n/a"
        | Some ns ->
            if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
            else Printf.sprintf "%8.1f ns" ns
      in
      T.add_row tbl [ name; cell ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows);
  T.print tbl

(* ------------------------------------------------------------------ *)

let timings_path = Filename.concat "results" "bench_timings.json"

let () =
  let metrics = FS.Metrics.create ~jobs () in
  print_endline
    "Reproduction harness: Kupavskii & Welzl, 'Lower Bounds for Searching\n\
     Robots, some Faulty' (PODC 2018).  One section per experiment of\n\
     EXPERIMENTS.md.";
  Pool.with_pool ~jobs (fun pool ->
      let run id experiment = FS.Metrics.time metrics ~experiment:id experiment in
      run "T1" (fun () -> t1_line_ratio pool);
      run "T2" t2_byzantine;
      run "F1" f1_rho_curve;
      run "T3" (fun () -> t3_mray_ratio pool);
      run "T4" (fun () -> t4_parallel_rays pool);
      run "F2" (fun () -> f2_alpha_sweep pool);
      run "F3" f3_potential_growth;
      run "T5" (fun () -> t5_fractional pool);
      run "T6" t6_phase;
      run "T7" (fun () -> t7_classics pool);
      run "F4" (fun () -> f4_horizon pool);
      run "F5" (fun () -> f5_threshold pool);
      run "F6" (fun () -> f6_eps_n_tradeoff pool);
      run "X1" (fun () -> x1_distance_measure pool);
      run "X2" (fun () -> x2_randomized pool);
      run "X3" (fun () -> x3_turn_cost pool);
      run "X4" (fun () -> x4_stochastic pool);
      run "X5" x5_induction;
      run "CSV" (fun () -> write_csv_series pool);
      run "MICRO" micro_benchmarks);
  FS.Metrics.record metrics ~experiment:"suite" ~seconds:(FS.Metrics.total metrics);
  FS.Metrics.write metrics ~path:timings_path;
  Printf.printf "\n(per-experiment wall-clock written to %s)\n" timings_path;
  if Atomic.get failed_cells > 0 then begin
    Printf.eprintf
      "bench: %d grid cell(s) failed (marked !ERR above); exiting 3\n%!"
      (Atomic.get failed_cells);
    exit 3
  end;
  print_endline "\nall experiments completed."
