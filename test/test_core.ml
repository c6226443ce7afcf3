(* Integration tests over the public API: problem construction, strategy
   synthesis, end-to-end verification grids, and the cross-layer
   identities (simulation vs covering vs closed form) that constitute the
   reproduction's acceptance criteria. *)

module FS = Faulty_search

let checkf6 = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Problem *)

let test_problem_defaults () =
  let p = FS.Problem.line ~k:3 ~f:1 () in
  check_bool "crash default" true (p.FS.Problem.fault_kind = FS.Problem.Crash);
  checkf6 "default horizon" 1e4 p.FS.Problem.horizon;
  checkf6 "bound" (FS.Formulas.a_line ~k:3 ~f:1) (FS.Problem.bound p)

let test_problem_validation () =
  (match FS.Problem.make ~m:2 ~k:0 ~f:0 () with
  | exception
      FS.Search_error.Error (FS.Search_error.Regime_violation _) ->
      ()
  | _ -> Alcotest.fail "k=0 accepted");
  match FS.Problem.make ~m:2 ~k:1 ~f:0 ~horizon:0.5 () with
  | exception FS.Search_error.Error (FS.Search_error.Invalid_input _) -> ()
  | _ -> Alcotest.fail "horizon < 1 accepted"

(* The boundary checks the CLI and the daemon share: each bad input
   raises its typed error, tagged with the caller's [where]. *)
let test_problem_boundary_checks () =
  let module E = FS.Search_error in
  let instance ~m ~k ~horizon () =
    ignore (FS.Problem.searching ~where:"here" ~m ~k ~f:1 ~horizon)
  in
  let invalid what = E.Invalid_input { where = "here"; what } in
  let horizon = invalid "need a finite horizon n >= 1" in
  let lambda = invalid "need a finite lambda > 1" in
  List.iter
    (fun (name, run, expected) ->
      match run () with
      | () -> Alcotest.failf "%s accepted" name
      | exception E.Error e ->
          Alcotest.(check string) name (E.to_string expected) (E.to_string e))
    [
      ("horizon 0.5", instance ~m:2 ~k:3 ~horizon:0.5, horizon);
      ("horizon nan", instance ~m:2 ~k:3 ~horizon:Float.nan, horizon);
      ("horizon inf", instance ~m:2 ~k:3 ~horizon:Float.infinity, horizon);
      ("lambda 1.0", (fun () -> FS.Problem.check_lambda ~where:"here" 1.), lambda);
      ( "lambda nan",
        (fun () -> FS.Problem.check_lambda ~where:"here" Float.nan),
        lambda );
      ( "samples 1",
        (fun () -> FS.Problem.check_samples ~where:"here" 1),
        invalid "need samples >= 2" );
      ( "ratio-one instance",
        instance ~m:2 ~k:8 ~horizon:100.,
        E.Regime_violation
          { m = 2; k = 8; f = 1; what = "here requires the searching regime" } );
      (* the refusal `recheck -m 2 -k 4 -f 1` prints, as certify's *)
      ( "recheck outside the searching regime",
        (fun () ->
          ignore
            (FS.Problem.searching ~where:"recheck" ~m:2 ~k:4 ~f:1
               ~horizon:100.)),
        E.Regime_violation
          { m = 2; k = 4; f = 1; what = "recheck requires the searching regime" }
      );
    ];
  instance ~m:2 ~k:3 ~horizon:100. ();
  instance ~m:3 ~k:2 ~horizon:1e9 ();
  FS.Problem.check_lambda ~where:"here" 1.5;
  FS.Problem.check_samples ~where:"here" 2

let test_problem_byzantine_bound () =
  let p = FS.Problem.line ~fault_kind:FS.Problem.Byzantine ~k:3 ~f:1 () in
  (* the bound reported is the crash transfer *)
  checkf6 "transfer" (FS.Byzantine.lower_bound ~k:3 ~f:1) (FS.Problem.bound p)

(* ------------------------------------------------------------------ *)
(* Solve *)

let test_solve_unsolvable () =
  let p = FS.Problem.line ~k:2 ~f:2 () in
  match FS.Solve.solve p with
  | exception
      FS.Search_error.Error (FS.Search_error.Regime_violation _) ->
      ()
  | _ -> Alcotest.fail "expected Unsolvable"

let test_solve_ratio_one () =
  let p = FS.Problem.line ~k:4 ~f:1 () in
  let s = FS.Solve.solve p in
  checkf6 "designed 1" 1. s.FS.Solve.designed_ratio;
  check_bool "no exponential strategy" true (s.FS.Solve.exponential = None);
  check_bool "no orc turns" true (FS.Solve.orc_turns s = None)

let test_solve_searching () =
  let p = FS.Problem.line ~k:3 ~f:1 () in
  let s = FS.Solve.solve p in
  checkf6 "designed = bound" s.FS.Solve.bound s.FS.Solve.designed_ratio;
  check_bool "has orc turns" true (FS.Solve.orc_turns s <> None);
  Alcotest.(check int) "k trajectories" 3
    (Array.length (FS.Solve.trajectories s))

let test_solve_custom_alpha () =
  let p = FS.Problem.line ~k:3 ~f:1 () in
  let s = FS.Solve.solve ~alpha:2.0 p in
  check_bool "designed above bound" true
    (s.FS.Solve.designed_ratio > s.FS.Solve.bound);
  checkf6 "designed matches formula"
    (FS.Formulas.exponential_ratio ~q:4 ~k:3 ~alpha:2.0)
    s.FS.Solve.designed_ratio

(* ------------------------------------------------------------------ *)
(* Verify: the acceptance grid *)

let verify_instance ?alpha ~m ~k ~f ~horizon () =
  let p = FS.Problem.make ~m ~k ~f ~horizon () in
  let s = FS.Solve.solve ?alpha p in
  FS.Verify.verify s

let test_verify_line_grid () =
  (* every meaningful line instance with k <= 5: simulation within the
     bound and ORC covering verified *)
  List.iter
    (fun (k, f) ->
      let r = verify_instance ~m:2 ~k ~f ~horizon:300. () in
      check_bool (Printf.sprintf "(k=%d,f=%d) ok" k f) true (FS.Verify.all_ok r);
      check_bool "tight" true (r.FS.Verify.gap_to_bound < 1e-9))
    [ (1, 0); (2, 1); (3, 1); (3, 2); (4, 2); (5, 2); (5, 3); (4, 3); (5, 4) ]

let test_verify_mray_grid () =
  List.iter
    (fun (m, k, f) ->
      let r = verify_instance ~m ~k ~f ~horizon:200. () in
      check_bool
        (Printf.sprintf "(m=%d,k=%d,f=%d) ok" m k f)
        true (FS.Verify.all_ok r))
    [ (3, 1, 0); (3, 2, 0); (3, 2, 1); (4, 3, 0); (4, 3, 1); (5, 4, 0); (5, 2, 0) ]

let test_verify_ratio_one_grid () =
  List.iter
    (fun (m, k, f) ->
      let r = verify_instance ~m ~k ~f ~horizon:200. () in
      check_bool "sim ok" true r.FS.Verify.simulation_ok;
      checkf6 "simulated ratio 1" 1. r.FS.Verify.simulated_ratio)
    [ (2, 2, 0); (2, 4, 1); (3, 3, 0); (3, 6, 1) ]

let test_verify_suboptimal_alpha_still_valid () =
  (* a suboptimal base still verifies against its own designed ratio *)
  let r = verify_instance ~alpha:2.2 ~m:2 ~k:3 ~f:1 ~horizon:300. () in
  check_bool "ok" true (FS.Verify.all_ok r);
  check_bool "gap positive" true (r.FS.Verify.gap_to_bound > 0.01)

let test_verify_simulated_approaches_bound () =
  (* the simulated sup-ratio approaches the bound from below as the
     horizon grows (experiment F4's shape) *)
  let ratios =
    List.map
      (fun horizon ->
        (verify_instance ~m:2 ~k:3 ~f:1 ~horizon ()).FS.Verify.simulated_ratio)
      [ 10.; 100.; 1000. ]
  in
  let bound = FS.Formulas.a_line ~k:3 ~f:1 in
  List.iter
    (fun r -> check_bool "never exceeds" true (r <= bound +. 1e-6))
    ratios;
  check_bool "last is within 1e-3" true
    (bound -. List.nth ratios 2 < 1e-3)

(* ------------------------------------------------------------------ *)
(* Cross-layer identities *)

let test_lower_bound_story_end_to_end () =
  (* the complete argument for (k=3, f=1) on a finite horizon:
     1. the strategy achieves lambda0 (simulation);
     2. coverage at lambda0 holds (upper-bound side of the relaxation);
     3. any claimed lambda 1% below is refuted (lower-bound side);
     4. the refutation threshold matches lambda0 (bisection). *)
  let p = FS.Problem.line ~k:3 ~f:1 ~horizon:400. () in
  let s = FS.Solve.solve p in
  let bound = s.FS.Solve.bound in
  let r = FS.Verify.verify s in
  check_bool "1. simulation" true r.FS.Verify.simulation_ok;
  check_bool "2. covering" true (r.FS.Verify.covering_ok = Some true);
  let turns = Option.get (FS.Solve.orc_turns s) in
  (match
     FS.Certificate.check_line ~turns ~f:1 ~lambda:(0.99 *. bound) ~n:400. ()
   with
  | FS.Certificate.Refuted_gap _ -> ()
  | v ->
      Alcotest.failf "3. expected refutation, got %a" FS.Certificate.pp_verdict
        v);
  let thr =
    FS.Certificate.coverage_threshold_lambda
      ~check:(fun ~lambda ->
        FS.Symmetric_cover.check turns ~demand:1 ~lambda ~n:400.
        = FS.Sweep.Covered)
      ~lo:3. ~hi:9. ()
  in
  check_bool "4. threshold at lambda0" true (Float.abs (thr -. bound) < 1e-3)

let test_fzero_resolves_open_question () =
  (* the f = 0 specialisation: parallel search on m rays, the question of
     Baeza-Yates et al., Kao et al., and Bernstein et al. *)
  List.iter
    (fun (m, k) ->
      let rho = float_of_int m /. float_of_int k in
      let expected = (2. *. FS.Formulas.mu_rho rho) +. 1. in
      checkf6
        (Printf.sprintf "m=%d k=%d" m k)
        expected
        (FS.Formulas.a_mray ~m ~k ~f:0);
      (* and the strategy attains it *)
      let r = verify_instance ~m ~k ~f:0 ~horizon:150. () in
      check_bool "attained" true (FS.Verify.all_ok r))
    [ (3, 2); (4, 3); (5, 3) ]

let test_byzantine_transfer_end_to_end () =
  (* the crash certificate applies verbatim to Byzantine robots, and the
     conservative announcement rule is strictly harder: its worst case is
     the (2f+1)-st visit, never earlier than the crash model's (f+1)-st *)
  let p = FS.Problem.line ~k:3 ~f:1 ~horizon:100. () in
  let s = FS.Solve.solve p in
  let trs = FS.Solve.trajectories s in
  let target = FS.World.point FS.World.line ~ray:0 ~dist:17.3 in
  let byz =
    FS.Byzantine_sim.worst_case_detection trs ~f:1 ~target ~horizon:1000.
  in
  check_bool "byzantine = crash with 2f faults" true
    (byz = FS.Engine.detection_time_worst trs ~f:2 ~target ~horizon:1000.);
  match
    (byz, FS.Engine.detection_time_worst trs ~f:1 ~target ~horizon:1000.)
  with
  | Some b, Some c -> check_bool "B-side never easier" true (b >= c)
  | _ -> Alcotest.fail "expected detections"

let test_event_log_detects () =
  let p = FS.Problem.line ~k:3 ~f:1 ~horizon:100. () in
  let s = FS.Solve.solve p in
  let trs = FS.Solve.trajectories s in
  let target = FS.World.point FS.World.line ~ray:1 ~dist:9.4 in
  let fv = FS.Engine.first_visits trs ~target ~horizon:500. in
  let assignment =
    FS.Fault.worst_for_visits FS.Fault.Crash ~first_visits:fv ~f:1
  in
  let entries =
    FS.Event_log.narrate_crash trs ~assignment ~target ~horizon:500.
  in
  check_bool "nonempty narration" true (List.length entries > 3);
  (* the last entry is the confirmation and its time matches the engine *)
  let last = List.nth entries (List.length entries - 1) in
  let detection =
    Option.get (FS.Engine.detection_time_worst trs ~f:1 ~target ~horizon:500.)
  in
  checkf6 "confirmation time" detection last.FS.Event_log.time


(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_searching () =
  let p = FS.Problem.line ~k:3 ~f:1 ~horizon:200. () in
  let r = FS.Report.build p in
  check_bool "regime" true (r.FS.Report.regime = FS.Params.Searching);
  checkf6 "bound" (FS.Formulas.a_line ~k:3 ~f:1) r.FS.Report.bound;
  check_bool "simulated close to exact" true
    (Float.abs (r.FS.Report.simulated_ratio -. r.FS.Report.exact_sup) < 1e-4);
  check_bool "covering verified" true (r.FS.Report.covering_ok = Some true);
  (match r.FS.Report.certificate_below with
  | Some (FS.Certificate.Refuted_gap _ | FS.Certificate.Refuted_potential _) -> ()
  | v ->
      Alcotest.failf "expected refutation, got %s"
        (match v with None -> "none" | Some _ -> "non-refuting verdict"));
  check_bool "byzantine transfer present" true
    (Option.equal Float.equal r.FS.Report.byzantine_transfer
       (Some r.FS.Report.bound))

let test_report_ratio_one () =
  let p = FS.Problem.line ~k:4 ~f:1 ~horizon:100. () in
  let r = FS.Report.build p in
  check_bool "regime" true (r.FS.Report.regime = FS.Params.Ratio_one);
  checkf6 "exact sup is 1" 1. r.FS.Report.exact_sup;
  check_bool "no certificate outside searching" true
    (r.FS.Report.certificate_below = None)

let test_report_markdown_renders () =
  let p = FS.Problem.line ~k:3 ~f:1 ~horizon:100. () in
  let md = FS.Report.to_markdown (FS.Report.build p) in
  check_bool "has title" true
    (String.length md > 0
    && String.sub md 0 17 = "# Instance report");
  check_bool "mentions the bound" true
    (let needle = "5.233069" in
     let rec search i =
       i + String.length needle <= String.length md
       && (String.sub md i (String.length needle) = needle || search (i + 1))
     in
     search 0)

let test_report_mray () =
  let p = FS.Problem.make ~m:3 ~k:2 ~f:0 ~horizon:150. () in
  let r = FS.Report.build p in
  checkf6 "bound" (FS.Formulas.a_mray ~m:3 ~k:2 ~f:0) r.FS.Report.bound;
  check_bool "certificate runs for m > 2 too" true
    (r.FS.Report.certificate_below <> None);
  check_bool "no byzantine figure off the line" true
    (r.FS.Report.byzantine_transfer = None)

(* ------------------------------------------------------------------ *)
(* properties *)

let gen_any_instance =
  QCheck2.Gen.(
    let* m = int_range 2 4 in
    let* f = int_range 0 2 in
    let* k = int_range (f + 1) (m * (f + 1)) in
    return (m, k, f))

let prop_verify_all_regimes =
  QCheck2.Test.make ~count:10 ~name:"verify passes across regimes"
    gen_any_instance (fun (m, k, f) ->
      let r = verify_instance ~m ~k ~f ~horizon:100. () in
      FS.Verify.all_ok r)

let prop_simulated_never_exceeds_designed =
  QCheck2.Test.make ~count:10 ~name:"simulated <= designed ratio"
    gen_any_instance (fun (m, k, f) ->
      let r = verify_instance ~m ~k ~f ~horizon:80. () in
      r.FS.Verify.simulated_ratio
      <= r.FS.Verify.solution.FS.Solve.designed_ratio +. 1e-6)

let properties =
  Fixture.properties
    [ prop_verify_all_regimes; prop_simulated_never_exceeds_designed ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "core"
    [
      ( "problem",
        [
          tc "defaults" `Quick test_problem_defaults;
          tc "validation" `Quick test_problem_validation;
          tc "boundary checks" `Quick test_problem_boundary_checks;
          tc "byzantine bound" `Quick test_problem_byzantine_bound;
        ] );
      ( "solve",
        [
          tc "unsolvable" `Quick test_solve_unsolvable;
          tc "ratio one" `Quick test_solve_ratio_one;
          tc "searching" `Quick test_solve_searching;
          tc "custom alpha" `Quick test_solve_custom_alpha;
        ] );
      ( "verify",
        [
          tc "line grid" `Slow test_verify_line_grid;
          tc "m-ray grid" `Slow test_verify_mray_grid;
          tc "ratio-one grid" `Quick test_verify_ratio_one_grid;
          tc "suboptimal alpha" `Quick test_verify_suboptimal_alpha_still_valid;
          tc "horizon convergence" `Quick test_verify_simulated_approaches_bound;
        ] );
      ( "cross-layer",
        [
          tc "lower-bound story" `Quick test_lower_bound_story_end_to_end;
          tc "f=0 open question" `Quick test_fzero_resolves_open_question;
          tc "byzantine transfer" `Quick test_byzantine_transfer_end_to_end;
          tc "event log detects" `Quick test_event_log_detects;
        ] );
      ( "report",
        [
          tc "searching instance" `Quick test_report_searching;
          tc "ratio-one instance" `Quick test_report_ratio_one;
          tc "markdown renders" `Quick test_report_markdown_renders;
          tc "m-ray instance" `Quick test_report_mray;
        ] );
      ("properties", properties);
    ]
