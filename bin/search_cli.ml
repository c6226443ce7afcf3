(* faulty-search: command-line front end.

   Subcommands:
     bounds    closed-form competitive ratios and derived quantities
     simulate  synthesize the optimal strategy and verify it empirically
     certify   run the lower-bound certificate against a claimed lambda
     sweep     competitive ratio of the exponential strategy vs its base
     trace     narrate a concrete search run

   Exit-code contract (kept consistent across subcommands, and relied on
   by CI and scripts):
     0  success — the command ran and found nothing adverse
     1  verified failure / finding — the tool worked and the answer is
        "bad": a refuted certificate, a failed verification, invariant
        violations from fuzz, lint findings, a corpus replay mismatch
     2  usage error — bad flags, invalid (m,k,f) instances, instances
        outside the regime a subcommand needs, unreadable inputs
     3  internal error — the runtime itself failed: an uncaught
        exception, a supervised task that exhausted its retries, a
        budget blowout, an I/O failure in the journal/lock layer *)

module FS = Faulty_search
open Cmdliner

let exit_ok = 0
let exit_finding = 1
let exit_usage = 2
let exit_internal = 3

(* ------------------------------------------------------------------ *)
(* common arguments                                                    *)

let m_arg =
  let doc = "Number of rays (the line is m = 2)." in
  Arg.(value & opt int 2 & info [ "m"; "rays" ] ~docv:"M" ~doc)

let k_arg =
  let doc = "Number of robots." in
  Arg.(value & opt int 1 & info [ "k"; "robots" ] ~docv:"K" ~doc)

let f_arg =
  let doc = "Number of (crash-type) faulty robots." in
  Arg.(value & opt int 0 & info [ "f"; "faulty" ] ~docv:"F" ~doc)

let n_arg =
  let doc = "Evaluation horizon: targets range over [1, N]." in
  Arg.(value & opt float 1e4 & info [ "n"; "horizon" ] ~docv:"N" ~doc)

let alpha_arg =
  let doc = "Base of the exponential strategy (default: the optimal one)." in
  Arg.(value & opt (some float) None & info [ "alpha" ] ~docv:"ALPHA" ~doc)

(* File helpers: close on every path, including raising ones, so a
   failed write/parse does not leak the descriptor.  [close_out_noerr]
   in the finally preserves the original exception. *)
let with_out_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The boundary checks ([Params.make], [Problem.make], and the
   [Problem.searching]/[check_*] family the daemon shares) raise typed
   errors; at the command line they are usage errors. *)
let checked check yield =
  match check () with
  | x -> yield x
  | exception
      FS.Search_error.Error
        ((FS.Search_error.Invalid_input _ | FS.Search_error.Regime_violation _)
         as e) ->
      Format.eprintf "%s@." (FS.Search_error.to_string e);
      exit_usage

let with_params m k f = checked (fun () -> FS.Params.make ~m ~k ~f)

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)

let bounds_run m k f =
  with_params m k f @@ fun p ->
  Format.printf "instance:        %a@." FS.Params.pp p;
  Format.printf "regime:          %a@." FS.Params.pp_regime (FS.Params.regime p);
  Format.printf "q = m(f+1):      %d@." (FS.Params.q p);
  Format.printf "s = q - k:       %d@." (FS.Params.s p);
  Format.printf "rho = q/k:       %.6f@." (FS.Params.rho p);
  let bound = FS.Formulas.a_mray ~m ~k ~f in
  Format.printf "A(m,k,f):        %.6f@." bound;
  (match FS.Params.regime p with
  | FS.Params.Searching ->
      Format.printf "optimal alpha:   %.6f@."
        (FS.Formulas.alpha_star ~q:(FS.Params.q p) ~k);
      if m = 2 then
        Format.printf "Byzantine:       B(%d,%d) >= %.6f (crash transfer)@." k f
          (FS.Byzantine.lower_bound ~k ~f)
  | FS.Params.Ratio_one | FS.Params.Unsolvable -> ());
  0

let bounds_cmd =
  let doc = "Closed-form competitive ratios (Theorems 1 and 6)." in
  Cmd.v (Cmd.info "bounds" ~doc) Term.(const bounds_run $ m_arg $ k_arg $ f_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_run m k f n alpha =
  checked (fun () ->
      FS.Solve.solve ?alpha (FS.Problem.make ~m ~k ~f ~horizon:n ()))
  @@ fun solution ->
  let report = FS.Verify.verify solution in
  Format.printf "%a@." FS.Verify.pp report;
  if FS.Verify.all_ok report then exit_ok else exit_finding

let simulate_cmd =
  let doc = "Synthesize the optimal strategy and verify it empirically." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(const simulate_run $ m_arg $ k_arg $ f_arg $ n_arg $ alpha_arg)

(* ------------------------------------------------------------------ *)
(* certify                                                             *)

let lambda_arg =
  let doc = "Claimed competitive ratio to test; must exceed 1." in
  Arg.(required & opt (some float) None & info [ "lambda" ] ~docv:"L" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel paths (default: the machine's \
     recommended domain count).  Results are identical at any job count."
  in
  Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)

let grid_arg =
  let doc =
    "Also certify $(docv) evenly spaced lambda values between the claimed \
     ratio and the theoretical bound, sharded across the domain pool."
  in
  Arg.(value & opt (some int) None & info [ "grid" ] ~docv:"C" ~doc)

let check_jobs = function
  | Some j when j < 1 ->
      Format.eprintf "--jobs must be at least 1@.";
      false
  | _ -> true

let json_out_arg =
  let doc = "Also write the certificate as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let certify_run m k f n lambda json_out jobs grid =
  if not (check_jobs jobs) then exit_usage
  else
    checked (fun () ->
        let where = "certify" in
        let problem = FS.Problem.searching ~where ~m ~k ~f ~horizon:n in
        FS.Problem.check_lambda ~where lambda;
        problem)
    @@ fun problem ->
    let solution = FS.Solve.solve problem in
    let bound = FS.Problem.bound problem in
    (* the λ-grid (the single claimed λ plus any --grid points) is
       refuted point-by-point across the domain pool; verdicts come
       back in input order, so the output does not depend on --jobs *)
    let lambdas =
      lambda
      ::
      (match grid with
      | Some c when c > 0 ->
          FS.Certificate.lambda_grid
            ~lo:(Float.min lambda bound)
            ~hi:(Float.max lambda bound)
            ~count:c
      | _ -> [])
    in
    let verdicts =
      FS.Pool.with_pool ?jobs @@ fun pool ->
      FS.Par.parallel_map pool
        ~f:(fun lambda -> (lambda, FS.Solve.certify solution ~lambda))
        lambdas
    in
    let verdict = snd (List.hd verdicts) in
    Format.printf "bound:   %.6f@." bound;
    Format.printf "claimed: %.6f@." lambda;
    Format.printf "verdict: %a@." FS.Certificate.pp_verdict verdict;
    (match List.tl verdicts with
    | [] -> ()
    | grid_verdicts ->
        Format.printf "lambda grid (%d points):@." (List.length grid_verdicts);
        List.iter
          (fun (l, v) ->
            Format.printf "  lambda = %.6f: %a@." l FS.Certificate.pp_verdict v)
          grid_verdicts);
    let setting, demand = FS.Problem.covering problem in
    (match json_out with
    | Some path ->
        let s =
          FS.Certificate_io.export_string ~pretty:true ~setting ~k ~demand
            ~lambda ~n verdict
        in
        with_out_file path (fun oc ->
            output_string oc s;
            output_char oc '\n');
        Format.printf "certificate written to %s@." path
    | None -> ());
    let lhb = FS.Certificate.log_horizon_bound setting ~k ~demand ~lambda () in
    if lhb < infinity then
      Format.printf
        "no strategy can cover beyond ln N = %.3f (N ~ 10^%.1f) at this \
         lambda@."
        lhb
        (lhb /. log 10.);
    (* a refutation of the claimed lambda is a verified finding *)
    match verdict with
    | FS.Certificate.Refuted_gap _ | FS.Certificate.Refuted_potential _ ->
        exit_finding
    | FS.Certificate.Not_refuted _ | FS.Certificate.Inconclusive _ -> exit_ok

let certify_cmd =
  let doc = "Run the lower-bound certificate against a claimed ratio." in
  Cmd.v
    (Cmd.info "certify" ~doc)
    Term.(
      const certify_run $ m_arg $ k_arg $ f_arg $ n_arg $ lambda_arg
      $ json_out_arg $ jobs_arg $ grid_arg)

(* ------------------------------------------------------------------ *)
(* recheck                                                             *)

let cert_file_arg =
  let doc = "Certificate JSON file to re-check." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let recheck_run m k f file =
  match FS.Certificate_io.parse_string (read_file file) with
  | Error msg ->
      Format.eprintf "cannot parse certificate: %s@." msg;
      exit_usage
  | Ok parsed -> (
      checked (fun () ->
          FS.Problem.searching ~where:"recheck" ~m ~k ~f
            ~horizon:parsed.FS.Certificate_io.n)
      @@ fun problem ->
      (* the searching regime always has rounds to project *)
      let turns = Option.get (FS.Solve.orc_turns (FS.Solve.solve problem)) in
      match FS.Certificate_io.recheck parsed ~turns with
      | Ok () ->
          Format.printf
            "certificate CONFIRMED against the (m=%d,k=%d,f=%d) optimal \
             strategy@."
            m k f;
          exit_ok
      | Error msg ->
          Format.printf "certificate MISMATCH: %s@." msg;
          exit_finding)

let recheck_cmd =
  let doc =
    "Re-derive a JSON certificate (from 'certify --json') against the \
     instance's optimal strategy and confirm the recorded verdict."
  in
  Cmd.v
    (Cmd.info "recheck" ~doc)
    Term.(const recheck_run $ m_arg $ k_arg $ f_arg $ cert_file_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let samples_arg =
  let doc = "Number of sample points." in
  Arg.(value & opt int 9 & info [ "samples" ] ~docv:"S" ~doc)

(* --- supervised-runtime flags, shared by sweep and fuzz ------------- *)

let chaos_seed_arg =
  let doc =
    "Enable deterministic fault injection with this seed.  The faults \
     are a pure function of (seed, task key): the same seed injects the \
     same faults at any $(b,--jobs) and on every rerun."
  in
  Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let retries_arg =
  let doc =
    "Retry budget per task (total attempts = $(docv) + 1).  With \
     $(docv) at or above the chaos mode's worst case (2 faults per \
     task), a chaos run's output is byte-identical to a fault-free one."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"R" ~doc)

let checkpoint_arg =
  let doc =
    "Checkpoint/resume journal directory.  Completed tasks are recorded \
     as they land; a rerun with the same configuration resumes instead \
     of restarting, and the journal is deleted when the run completes."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let chaos_of = function
  | None -> FS.Chaos.disabled
  | Some seed -> FS.Chaos.make ~seed ()

let retry_of retries =
  if retries <= 0 then FS.Retry.none
  else FS.Retry.immediate ~attempts:(retries + 1)

let sweep_out_arg =
  let doc = "Write the results table to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let chunk_arg =
  let doc =
    "Grid cells dispatched per pool task.  Chunking amortises dispatch \
     overhead on cheap cells; the table is byte-identical at any chunk \
     size (and any $(b,--jobs))."
  in
  Arg.(value & opt int 4 & info [ "chunk" ] ~docv:"C" ~doc)

(* Checkpoint codec for one sweep row: [None] (sample below the alpha
   floor) is JSON null, [Some cells] is a list of strings. *)
let row_to_json = function
  | None -> FS.Json.Null
  | Some cells -> FS.Json.List (List.map (fun c -> FS.Json.String c) cells)

let row_of_json = function
  | FS.Json.Null -> Ok None
  | FS.Json.List items -> (
      let cells = List.filter_map FS.Json.to_string_value items in
      if List.length cells = List.length items then Ok (Some cells)
      else Error "sweep: malformed journalled row")
  | _ -> Error "sweep: expected null or a cell list"

let sweep_run m k f n samples jobs chaos_seed retries checkpoint out chunk =
  if not (check_jobs jobs) then exit_usage
  else if chunk < 1 then begin
    Format.eprintf "sweep: need --chunk >= 1@.";
    exit_usage
  end
  else
    checked (fun () ->
        let where = "sweep" in
        FS.Problem.check_samples ~where samples;
        FS.Problem.searching ~where ~m ~k ~f ~horizon:n)
    @@ fun problem ->
    let p = problem.FS.Problem.params in
    let a_star = FS.Formulas.alpha_star ~q:(FS.Params.q p) ~k in
    let tbl =
      FS.Table.create
        ~title:
          (Format.asprintf "ratio vs alpha for %a (alpha* = %.6f)"
             FS.Params.pp p a_star)
        [ ("alpha", FS.Table.Right); ("predicted", FS.Table.Right);
          ("simulated", FS.Table.Right) ]
    in
    let persist =
      Option.map
        (fun dir ->
          let config =
            FS.Json.Assoc
              [
                ("run", FS.Json.String "sweep");
                ("m", FS.Json.Number (float_of_int m));
                ("k", FS.Json.Number (float_of_int k));
                ("f", FS.Json.Number (float_of_int f));
                ("n", FS.Json.Number n);
                ("samples", FS.Json.Number (float_of_int samples));
              ]
          in
          {
            FS.Supervise.journal = FS.Journal.open_ ~dir ~config;
            encode = row_to_json;
            decode = row_of_json;
          })
        checkpoint
    in
    let spec =
      {
        FS.Supervise.default with
        chaos = chaos_of chaos_seed;
        retry = retry_of retries;
      }
    in
    (* each sample point synthesizes and attacks its own strategy, so the
       rows shard across the pool; they are re-assembled in input order
       and the table is printed sequentially — same bytes at any --jobs.
       A failing cell degrades to a marked error row instead of aborting
       the table, and the command exits 3. *)
    let rows =
      FS.Pool.with_pool ?jobs @@ fun pool ->
      FS.Supervise.map pool ~spec ?persist ~chunk
        ~task:(fun i _ -> Printf.sprintf "sweep/alpha-%d" i)
        ~f:(fun _meter i -> FS.Verify.sweep_row problem ~samples i)
        (List.init samples Fun.id)
    in
    Option.iter (fun pr -> FS.Journal.finish pr.FS.Supervise.journal) persist;
    let failed = ref 0 in
    List.iter
      (function
        | Ok row -> Option.iter (FS.Table.add_row tbl) row
        | Error err ->
            incr failed;
            Format.eprintf "sweep: %a@." FS.Search_error.pp err;
            FS.Table.add_row tbl
              [ "!ERR " ^ FS.Search_error.tag err; "-"; "-" ])
      rows;
    let text = FS.Table.render tbl in
    (match out with
    | None -> print_string text
    | Some file ->
        let oc = open_out_bin file in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc text);
        Format.printf "sweep table written to %s@." file);
    if !failed = 0 then exit_ok else exit_internal

let sweep_cmd =
  let doc = "Ratio of the exponential strategy as a function of its base." in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const sweep_run $ m_arg $ k_arg $ f_arg $ n_arg $ samples_arg $ jobs_arg
      $ chaos_seed_arg $ retries_arg $ checkpoint_arg $ sweep_out_arg
      $ chunk_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let target_arg =
  let doc = "Target distance (placed on ray 0)." in
  Arg.(value & opt float 42. & info [ "target" ] ~docv:"X" ~doc)

let trace_run m k f target =
  checked (fun () ->
      FS.Solve.solve (FS.Problem.make ~m ~k ~f ~horizon:(4. *. target) ()))
  @@ fun solution ->
  let trajectories = FS.Solve.trajectories solution in
  let world = FS.World.rays m in
  let point = FS.World.point world ~ray:0 ~dist:target in
  let horizon = 2. *. solution.FS.Solve.bound *. target in
  let first_visits = FS.Engine.first_visits trajectories ~target:point ~horizon in
  let assignment = FS.Fault.worst_for_visits FS.Fault.Crash ~first_visits ~f in
  FS.Event_log.print
    (FS.Event_log.narrate_crash ~min_turn_depth:(target /. 100.) trajectories
       ~assignment ~target:point ~horizon);
  exit_ok

let trace_cmd =
  let doc = "Narrate a search run against the worst-case fault assignment." in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(const trace_run $ m_arg $ k_arg $ f_arg $ target_arg)

(* ------------------------------------------------------------------ *)
(* phase                                                               *)

let phase_run m =
  if m < 2 then begin
    Format.eprintf "phase: need m >= 2@.";
    exit_usage
  end
  else begin
    let tbl =
      FS.Table.create
        ~title:(Printf.sprintf "regimes and ratios for m = %d" m)
        ([ ("k \\ f", FS.Table.Right) ]
        @ List.map (fun f -> (Printf.sprintf "f=%d" f, FS.Table.Right))
            [ 0; 1; 2; 3 ])
    in
    for k = 1 to 10 do
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
                     FS.Table.cell_f ~decimals:3 (FS.Formulas.a_mray ~m ~k ~f))
             [ 0; 1; 2; 3 ]
      in
      FS.Table.add_row tbl row
    done;
    FS.Table.print tbl;
    0
  end

let phase_cmd =
  let doc = "Regime table (unsolvable / ratio-one / searching) for m rays." in
  Cmd.v (Cmd.info "phase" ~doc) Term.(const phase_run $ m_arg)

(* ------------------------------------------------------------------ *)
(* fractional                                                          *)

let eta_arg =
  let doc = "Covering weight eta (> 1)." in
  Arg.(value & opt float 2.0 & info [ "eta" ] ~docv:"ETA" ~doc)

let fractional_run eta =
  if eta <= 1. then begin
    Format.eprintf "fractional: need eta > 1@.";
    exit_usage
  end
  else begin
    Format.printf "C(%g) = %.6f@." eta (FS.Fractional.c_eta eta);
    let tbl =
      FS.Table.create
        [
          ("q_i/k_i", FS.Table.Left); ("lambda0(q_i,k_i)", FS.Table.Right);
          ("excess", FS.Table.Right);
        ]
    in
    List.iter
      (fun (r, v) ->
        FS.Table.add_row tbl
          [
            Format.asprintf "%a" FS.Rational.pp r;
            FS.Table.cell_f ~decimals:6 v;
            FS.Table.cell_f ~decimals:6 (v -. FS.Fractional.c_eta eta);
          ])
      (FS.Fractional.upper_approximations ~eta ~count:8);
    FS.Table.print tbl;
    0
  end

let fractional_cmd =
  let doc = "The fractional relaxation C(eta) and its rational approximants." in
  Cmd.v (Cmd.info "fractional" ~doc) Term.(const fractional_run $ eta_arg)

(* ------------------------------------------------------------------ *)
(* random (the KRT randomized cow path)                                *)

let random_run () =
  let beta = FS.Randomized.optimal_beta () in
  Format.printf "optimal beta: %.6f (root of b ln b = b + 1)@." beta;
  Format.printf "expected competitive ratio: %.6f (deterministic: 9)@."
    (FS.Randomized.optimal_ratio ());
  Format.printf "quadrature check at x = 1000: %.6f@."
    (FS.Randomized.expected_ratio_exact ~beta ~x:1000. ~grid:2000);
  0

let random_cmd =
  let doc = "The optimal randomized single-robot line search (Kao-Reif-Tate)." in
  Cmd.v (Cmd.info "random" ~doc) Term.(const random_run $ const ())

(* ------------------------------------------------------------------ *)
(* plan                                                                *)

let budget_arg =
  let doc = "Target competitive ratio." in
  Arg.(value & opt float 6.0 & info [ "budget" ] ~docv:"L" ~doc)

let max_f_arg =
  let doc = "Largest fault count to tabulate." in
  Arg.(value & opt int 4 & info [ "max-f" ] ~docv:"F" ~doc)

let plan_run m budget max_f =
  if m < 2 then begin
    Format.eprintf "plan: need m >= 2@.";
    exit_usage
  end
  else begin
    Format.printf "fleets achieving ratio <= %g on %d rays:@." budget m;
    if budget >= 3. then
      Format.printf "(continuous frontier: rho = m(f+1)/k <= %.6f)@.@."
        (FS.Planning.rho_for_lambda ~lambda:budget);
    let tbl =
      FS.Table.create
        [
          ("f", FS.Table.Right); ("min robots k", FS.Table.Right);
          ("achieved ratio", FS.Table.Right);
        ]
    in
    List.iter
      (fun { FS.Planning.k; f; ratio } ->
        FS.Table.add_row tbl
          [
            FS.Table.cell_i f; FS.Table.cell_i k;
            FS.Table.cell_f ~decimals:6 ratio;
          ])
      (FS.Planning.cheapest_fleets ~m ~lambda:budget ~max_f);
    FS.Table.print tbl;
    0
  end

let plan_cmd =
  let doc = "Smallest fleets achieving a target ratio (inverse of Theorem 6)." in
  Cmd.v
    (Cmd.info "plan" ~doc)
    Term.(const plan_run $ m_arg $ budget_arg $ max_f_arg)

(* ------------------------------------------------------------------ *)
(* report                                                              *)

let out_arg =
  let doc = "Write the markdown report to $(docv) ('-' for stdout)." in
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let report_run m k f n out =
  checked (fun () -> FS.Problem.make ~m ~k ~f ~horizon:n ()) @@ fun problem ->
  checked (fun () -> FS.Report.build problem) @@ fun report ->
  let md = FS.Report.to_markdown report in
  if out = "-" then print_string md
  else begin
    with_out_file out (fun oc -> output_string oc md);
    Format.printf "report written to %s@." out
  end;
  exit_ok

let report_cmd =
  let doc = "Full markdown report for one instance (bounds, simulation, \
             exact supremum, covering, certificate)." in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const report_run $ m_arg $ k_arg $ f_arg $ n_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let seed_arg =
  let doc = "Seed of the deterministic case stream." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let cases_arg =
  let doc = "Number of random cases to generate and check." in
  Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)

let replay_arg =
  let doc =
    "Replay corpus entries instead of fuzzing: $(docv) is a JSON case \
     file or a directory of them (e.g. test/corpus)."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"PATH" ~doc)

let corpus_dir_arg =
  let doc =
    "Write each failing case (shrunk) into $(docv) as a replayable JSON \
     corpus entry."
  in
  Arg.(value & opt (some string) None & info [ "corpus-dir" ] ~docv:"DIR" ~doc)

let fuzz_replay path =
  let entries =
    if Sys.is_directory path then FS.Check.Corpus.files ~dir:path
    else [ path ]
  in
  if entries = [] then begin
    Format.eprintf "no corpus entries under %s@." path;
    exit_usage
  end
  else begin
    let failed = ref 0 in
    List.iter
      (fun file ->
        match FS.Check.Corpus.replay_file file with
        | Ok () -> Format.printf "replay %s: OK@." file
        | Error msg ->
            incr failed;
            Format.printf "replay %s: FAIL %s@." file msg)
      entries;
    Format.printf "replayed %d entr%s, %d failing@." (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      !failed;
    if !failed = 0 then exit_ok else exit_finding
  end

let fuzz_run seed cases jobs replay corpus_dir chaos_seed retries checkpoint =
  if not (check_jobs jobs) then exit_usage
  else
    match replay with
    | Some path -> fuzz_replay path
    | None ->
        let outcome =
          FS.Check.Fuzz.run ?jobs ~chaos:(chaos_of chaos_seed)
            ~retry:(retry_of retries) ?journal_dir:checkpoint ~seed ~cases ()
        in
        (* the report carries no timing or job count: identical bytes at
           any --jobs and across runs (and, with enough retries, under
           chaos) *)
        print_string (FS.Check.Fuzz.report outcome);
        (match corpus_dir with
        | Some dir when outcome.FS.Check.Fuzz.failures <> [] ->
            List.iter
              (Format.printf "corpus entry written to %s@.")
              (FS.Check.Fuzz.save_failures ~dir outcome)
        | _ -> ());
        if outcome.FS.Check.Fuzz.failures = [] then exit_ok else exit_finding

let fuzz_cmd =
  let doc =
    "Property-based fuzzing: random cases through the invariant \
     catalogue, with shrinking and corpus replay."
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz_run $ seed_arg $ cases_arg $ jobs_arg $ replay_arg
      $ corpus_dir_arg $ chaos_seed_arg $ retries_arg $ checkpoint_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)

let root_arg =
  let doc = "Project root to lint (must contain lib/, bin/, ...)." in
  Arg.(value & opt dir "." & info [ "root" ] ~docv:"DIR" ~doc)

let format_arg =
  let doc = "Output format: $(b,text), $(b,json) or $(b,github) (GitHub \
             Actions ::error annotations)." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("github", `Github) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc)

let rules_arg =
  let doc =
    "Comma-separated catalogue ids to report (default: all); stale \
     lint.allow entries are only checked for these.  Use $(b,--rules \
     list) to print the catalogue."
  in
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"RULES" ~doc)

let strict_arg =
  let doc =
    "Fail (exit 1) when lint.allow or lint.budget contains stale \
     entries — audited exceptions that no longer match any finding or \
     [@hot] root."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

(* Exit codes follow the CLI-wide contract: 0 clean, 1 verified finding
   (or, under --strict, a stale allowlist/budget entry), 2 usage, 3
   internal (a source with no loadable, up-to-date artefact). *)
let lint_run root format rules strict jobs =
  if not (check_jobs jobs) then exit_usage
  else
    let module A = Search_analysis in
    match rules with
    | Some "list" ->
        List.iter
          (fun e ->
            Format.printf "%-24s %-9s %s@." e.A.Catalogue.id
              (A.Catalogue.family_to_string e.A.Catalogue.family)
              e.A.Catalogue.doc)
          A.Catalogue.all;
        0
    | _ -> (
        let rules = Option.map (String.split_on_char ',') rules in
        match
          let ( let* ) = Result.bind in
          let* allow = A.Driver.load_allow ~root in
          let* budget = A.Driver.load_budget ~root in
          Ok (allow, budget)
        with
        | Error msg ->
            Format.eprintf "lint: %s@." msg;
            exit_usage
        | Ok (allow, budget) -> (
            match
              A.Driver.run ?jobs ?rules ~allow ~budget ~root ()
            with
            | exception Invalid_argument msg ->
                Format.eprintf "lint: %s@." msg;
                exit_usage
            | outcome ->
                print_string
                  (match format with
                  | `Text -> A.Driver.render_text outcome
                  | `Json -> A.Driver.render_json outcome
                  | `Github -> A.Driver.render_github outcome);
                A.Driver.exit_code ~strict outcome))

let lint_cmd =
  let doc =
    "Determinism & numeric-safety lint over lib/, bin/, bench/ and test/, \
     read from the .cmt/.cmti artefacts dune emitted for them (build \
     first: $(b,dune build @check)): the per-file rules, the typed \
     interprocedural analyses, the hot-path allocation/blocking analyses, \
     the exception-flow/leak/sim-hygiene analyses and the export-use \
     pass (examples/ and perfbench/ count as callers).  Exit 1 on any \
     finding not suppressed by lint.allow / lint.budget; exit 3 when a \
     source has no artefact or a stale one."
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const lint_run $ root_arg $ format_arg $ rules_arg $ strict_arg
      $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let socket_arg =
  let doc = "Unix-domain socket path to listen on." in
  Arg.(
    value
    & opt string "/tmp/faulty-search.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let queue_cap_arg =
  let doc =
    "Pending-request bound.  Requests arriving while the queue holds \
     $(docv) entries are answered with an explicit 'overloaded' response \
     instead of queueing without limit."
  in
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)

let batch_cap_arg =
  let doc = "Maximum requests dispatched onto the pool per cycle." in
  Arg.(value & opt int 32 & info [ "batch-cap" ] ~docv:"N" ~doc)

let cache_cap_arg =
  let doc =
    "Entry bound of the shared bound cache (LRU eviction beyond it; \
     hit/miss/eviction counters via the 'stats' request)."
  in
  Arg.(value & opt int 256 & info [ "cache-cap" ] ~docv:"N" ~doc)

let serve_run socket jobs queue_cap batch_cap cache_cap chaos_seed retries =
  if not (check_jobs jobs) then exit_usage
  else if queue_cap < 1 || batch_cap < 1 || cache_cap < 1 then begin
    Format.eprintf "serve: --queue-cap, --batch-cap and --cache-cap must be \
                    at least 1@.";
    exit_usage
  end
  else begin
    (* SIGTERM/SIGINT flip the stop flag; the event loop polls it every
       select timeout and tears down cleanly — socket file removed,
       exit 0 (the contract the CI smoke job asserts) *)
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    let spec =
      {
        FS.Supervise.default with
        chaos = chaos_of chaos_seed;
        retry = retry_of retries;
      }
    in
    FS.Pool.with_pool ?jobs @@ fun pool ->
    let dispatch =
      Search_serve.Dispatch.create ~pool ~cache_capacity:cache_cap ~spec ()
    in
    let config =
      Search_serve.Server.config ~queue_cap ~batch_cap
        ~log:(fun msg -> Format.printf "serve: %s@." msg)
        ~socket_path:socket ()
    in
    match Search_serve.Server.run config ~dispatch ~stop with
    | () -> exit_ok
    | exception FS.Search_error.Error err ->
        Format.eprintf "serve: %a@." FS.Search_error.pp err;
        exit_internal
  end

let serve_cmd =
  let doc =
    "Long-lived daemon: bound queries, certificates, sweeps and \
     Monte-Carlo simulations over a Unix-domain socket (length-prefixed \
     JSON; see DESIGN.md for the wire protocol).  Requests batch onto \
     the domain pool; responses are byte-identical at any $(b,--jobs)."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve_run $ socket_arg $ jobs_arg $ queue_cap_arg $ batch_cap_arg
      $ cache_cap_arg $ chaos_seed_arg $ retries_arg)

(* ------------------------------------------------------------------ *)
(* dst                                                                 *)

module Dst = Search_dst.Harness

let dst_seed_arg =
  let doc = "Schedule seed of the first simulated run." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let dst_seeds_arg =
  let doc =
    "Schedule-search width: run seeds SEED, SEED+1, ... until one \
     violates an invariant or $(docv) runs stay clean."
  in
  Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc)

let dst_clients_arg =
  let doc = "Simulated client fleet size." in
  Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc)

let dst_requests_arg =
  let doc = "Requests per simulated client." in
  Arg.(value & opt int 6 & info [ "requests" ] ~docv:"N" ~doc)

let dst_faults_arg =
  let doc =
    "Enable network faults: chunk reordering, drops (connection resets) \
     and scheduled peer crashes, all drawn from the run's split PRNG."
  in
  Arg.(value & flag & info [ "faults" ] ~doc)

let dst_light_arg =
  let doc = "Restrict the workload mix to cheap operations." in
  Arg.(value & flag & info [ "light" ] ~doc)

let dst_queue_cap_arg =
  let doc = "Backlog bound of the simulated daemon (small by default so \
             overload paths are exercised)." in
  Arg.(value & opt int 8 & info [ "queue-cap" ] ~docv:"N" ~doc)

let dst_inject_arg =
  let doc =
    Printf.sprintf
      "Inject a known server bug to validate the oracles; $(docv) is one \
       of: %s."
      (String.concat ", " Dst.injections)
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"BUG" ~doc)

let dst_replay_arg =
  let doc =
    "Replay corpus entries instead of searching: $(docv) is a \
     dst-scenario JSON file or a directory of them (e.g. \
     test/corpus/dst)."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"PATH" ~doc)

let dst_corpus_dir_arg =
  let doc =
    "After shrinking a failing run, write it into $(docv) as a \
     replayable JSON corpus entry."
  in
  Arg.(value & opt (some string) None & info [ "corpus-dir" ] ~docv:"DIR" ~doc)

let dst_trace_arg =
  let doc =
    "Write the virtual-time event trace of the (first) run to $(docv) — \
     byte-identical across reruns of the same scenario; '-' for stdout."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let dst_write_trace trace = function
  | None -> ()
  | Some "-" -> print_string trace
  | Some file ->
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc trace)

let dst_replay path =
  let entries =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort String.compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  if entries = [] then begin
    Format.eprintf "no corpus entries under %s@." path;
    exit_usage
  end
  else begin
    let failed = ref 0 in
    List.iter
      (fun file ->
        match Dst.replay_file file with
        | Ok o ->
            Format.printf "replay %s: OK (%s)@." file
              (if Dst.failing o then "violates, as recorded"
               else "clean, as recorded")
        | Error msg ->
            incr failed;
            Format.printf "replay %s: FAIL %s@." file msg)
      entries;
    Format.printf "replayed %d entr%s, %d failing@." (List.length entries)
      (if List.length entries = 1 then "y" else "ies")
      !failed;
    if !failed = 0 then exit_ok else exit_finding
  end

let dst_run seed seeds clients requests faults jobs light queue_cap inject
    replay corpus_dir trace_out =
  if not (check_jobs jobs) then exit_usage
  else
    match replay with
    | Some path -> dst_replay path
    | None -> (
        match
          Dst.scenario ~seed ~clients ~requests ~faults
            ?jobs ~light ~queue_cap ?inject ()
        with
        | exception FS.Search_error.Error err ->
            Format.eprintf "dst: %a@." FS.Search_error.pp err;
            exit_usage
        | sc -> (
            match Dst.search sc ~seeds with
            | `Clean n ->
                (* re-run the base seed for the trace so --trace-out is
                   useful on clean searches too *)
                let o = Dst.run sc in
                dst_write_trace o.Dst.trace trace_out;
                Format.printf
                  "dst: %d seed%s clean (served %d, overload give-ups %d, \
                   conn errors %d, digest %s)@."
                  n
                  (if n = 1 then "" else "s")
                  o.Dst.served o.Dst.overloaded_gaveup o.Dst.conn_errors
                  o.Dst.digest;
                exit_ok
            | `Found (o, tried) ->
                dst_write_trace o.Dst.trace trace_out;
                Format.printf "dst: seed %d violates after %d seed%s:@."
                  o.Dst.scenario.Dst.seed tried
                  (if tried = 1 then "" else "s");
                List.iter (Format.printf "  %s@.") o.Dst.violations;
                let shrunk = Dst.shrink o in
                let ssc = shrunk.Dst.scenario in
                Format.printf
                  "dst: shrunk to seed %d, %d client%s x %d request%s%s%s@."
                  ssc.Dst.seed ssc.Dst.clients
                  (if ssc.Dst.clients = 1 then "" else "s")
                  ssc.Dst.requests
                  (if ssc.Dst.requests = 1 then "" else "s")
                  (if ssc.Dst.faults then ", faults" else "")
                  (if ssc.Dst.light then ", light" else "");
                (match corpus_dir with
                | None -> ()
                | Some dir ->
                    Format.printf "corpus entry written to %s@."
                      (Dst.corpus_write ~dir shrunk));
                exit_finding))

let dst_cmd =
  let doc =
    "Deterministic whole-system simulation: the real daemon, simulated \
     clients and a seeded fault plan inside one discrete-event \
     scheduler.  A run is a pure function of the scenario (seed, fleet, \
     mix, faults); failing seeds replay exactly and shrink to minimal \
     corpus entries."
  in
  Cmd.v
    (Cmd.info "dst" ~doc)
    Term.(
      const dst_run $ dst_seed_arg $ dst_seeds_arg $ dst_clients_arg
      $ dst_requests_arg $ dst_faults_arg $ jobs_arg $ dst_light_arg
      $ dst_queue_cap_arg $ dst_inject_arg $ dst_replay_arg
      $ dst_corpus_dir_arg $ dst_trace_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "parallel search on m rays with faulty robots (PODC 2018)" in
  let info = Cmd.info "faulty-search" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      bounds_cmd; simulate_cmd; certify_cmd; recheck_cmd; sweep_cmd; trace_cmd;
      phase_cmd; fractional_cmd; random_cmd; report_cmd; plan_cmd; fuzz_cmd;
      lint_cmd; serve_cmd; dst_cmd;
    ]

(* Map cmdliner's evaluation onto the exit-code contract in the header:
   parse/term errors are usage (2); an escaping exception — including a
   [Search_error] no subcommand translated — is an internal error (3). *)
(* whole-system invariants hook into the fuzz catalogue at startup (the
   registry breaks the dst -> serve -> core -> check dependency cycle) *)
let () = Dst.register_invariant ()

let () =
  exit
    (match Cmd.eval_value ~catch:false main_cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> exit_ok
    | Error (`Parse | `Term) -> exit_usage
    | Error `Exn -> exit_internal
    | exception FS.Search_error.Error err ->
        Format.eprintf "faulty-search: %a@." FS.Search_error.pp err;
        exit_internal
    | exception e ->
        Format.eprintf "faulty-search: uncaught exception: %s@."
          (Printexc.to_string e);
        exit_internal)
