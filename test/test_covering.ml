(* Tests for the covering layer: the ±-covering and ORC relaxations, the
   assigned-interval construction, the potential function (the heart of
   the lower-bound proofs), the certificates, and the fractional
   relaxation with its rational-approximation reduction. *)

module P = Search_bounds.Params
module F = Search_bounds.Formulas
module Turning = Search_strategy.Turning
module Mray = Search_strategy.Mray_exponential
module Sym = Search_covering.Symmetric
module Orc = Search_covering.Orc
module A = Search_covering.Assigned
module Pot = Search_covering.Potential
module Cert = Search_covering.Certificate
module Frac = Search_covering.Fractional
module Sweep = Search_numerics.Sweep

let checkf6 = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lam31 = F.a_line ~k:3 ~f:1
let turns31 () = Orc.of_mray_group (Mray.make (P.line ~k:3 ~f:1))
let doubling = Turning.geometric ~scale:0.5 ~alpha:2. ()

(* ------------------------------------------------------------------ *)
(* Symmetric (±-covering) *)

let test_sym_optimal_covers_at_bound () =
  let turns = turns31 () in
  check_bool "covered at lambda0 + eps" true
    (Sym.check turns ~demand:1 ~lambda:(lam31 +. 1e-6) ~n:500. = Sweep.Covered)

let test_sym_fails_below_bound () =
  let turns = turns31 () in
  match Sym.check turns ~demand:1 ~lambda:(lam31 -. 0.05) ~n:500. with
  | Sweep.Covered -> Alcotest.fail "covering below the bound?!"
  | Sweep.Gap { multiplicity; _ } -> check_int "zero-covered gap" 0 multiplicity

let test_sym_doubling_cow_at_nine () =
  check_bool "doubling covers at 9 + eps" true
    (Sym.check [| doubling |] ~demand:1 ~lambda:(9. +. 1e-9) ~n:500.
    = Sweep.Covered);
  check_bool "doubling fails at 8.9" true
    (Sym.check [| doubling |] ~demand:1 ~lambda:8.9 ~n:500. <> Sweep.Covered)

let test_sym_max_covered_monotone_in_lambda () =
  let turns = [| doubling |] in
  let m1 = Sym.max_covered turns ~demand:1 ~lambda:7. ~n:1e4 in
  let m2 = Sym.max_covered turns ~demand:1 ~lambda:8. ~n:1e4 in
  let m3 = Sym.max_covered turns ~demand:1 ~lambda:9.1 ~n:1e4 in
  check_bool "monotone" true (m1 <= m2 && m2 <= m3);
  checkf6 "full at 9.1" 1e4 m3

let test_sym_intervals_within_window () =
  let ivs = Sym.cover_intervals_within doubling ~lambda:9. ~within:(1., 64.) in
  check_bool "nonempty" true (List.length ivs > 3);
  List.iter
    (fun (i, (iv : Search_numerics.Interval1.t)) ->
      check_bool
        (Printf.sprintf "interval %d intersects window" i)
        true
        (iv.Search_numerics.Interval1.hi >= 1.
        && iv.Search_numerics.Interval1.lo <= 64.))
    ivs

(* Every entry point rejects a lambda that is not > 1, NaN included:
   NaN fails every comparison, so a [lambda <= 1.] guard would let it
   through to a meaningless verdict. *)
let check_rejects_bad_lambda name check =
  List.iter
    (fun lambda ->
      match check ~lambda with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted lambda = %g" name lambda)
    [ Float.nan; 1.; 0.5 ]

let test_sym_rejects_bad_lambda () =
  check_rejects_bad_lambda "Symmetric.check" (fun ~lambda ->
      Sym.check (turns31 ()) ~demand:1 ~lambda ~n:10.)

(* The flat-array kernels against the reference loops over the memoised
   sequences, bit for bit: on the doubling sequence and the ORC
   projection of the optimal (3, 1) group, over an ordinary window, the
   degenerate window [1, 1], a window starting past the first turns and
   one reaching deep into the sequence. *)
let same_intervals a b =
  List.equal
    (fun (i, (x : Search_numerics.Interval1.t)) (j, y) ->
      Int.equal i j
      && Int64.equal (Int64.bits_of_float x.lo) (Int64.bits_of_float y.lo)
      && Int64.equal (Int64.bits_of_float x.hi) (Int64.bits_of_float y.hi))
    a b

let test_kernels_match_reference () =
  let lambda = 9. in
  let mu = (lambda -. 1.) /. 2. in
  List.iter
    (fun turns ->
      List.iter
        (fun within ->
          check_bool "line bitwise" true
            (same_intervals
               (Sym.cover_intervals_within turns ~lambda ~within)
               (Search_strategy.Line_zigzag.cover_intervals_within turns ~mu
                  ~within));
          check_bool "orc bitwise" true
            (same_intervals
               (Orc.cover_intervals_within turns ~lambda ~within)
               (Search_strategy.Orc_round.cover_intervals_within turns ~mu
                  ~within ())))
        [ (1., 64.); (1., 1.); (1e6, 1e9); (1., 1e300) ])
    (doubling :: Array.to_list (turns31 ()))

(* ------------------------------------------------------------------ *)
(* ORC *)

let test_orc_rejects_bad_lambda () =
  check_rejects_bad_lambda "Orc.check" (fun ~lambda ->
      Orc.check (turns31 ()) ~demand:4 ~lambda ~n:10.)

let test_orc_optimal_covers_qfold () =
  let turns = turns31 () in
  check_bool "4-fold at lambda0 + eps" true
    (Orc.check turns ~demand:4 ~lambda:(lam31 +. 1e-6) ~n:500. = Sweep.Covered)

let test_orc_demand_strictness () =
  let turns = turns31 () in
  (* the optimal strategy covers exactly q-fold, not (q+1)-fold *)
  check_bool "5-fold fails" true
    (Orc.check turns ~demand:5 ~lambda:(lam31 +. 1e-6) ~n:500. <> Sweep.Covered)

let test_orc_of_mray_geometric () =
  let strat = Mray.make (P.line ~k:3 ~f:1) in
  let t = Orc.of_mray strat ~robot:0 in
  let a = Mray.alpha strat in
  checkf6 "consecutive depth ratio alpha^k"
    (a ** 3.)
    (Turning.get t 5 /. Turning.get t 4)

let test_orc_mray_covering_demand () =
  (* m = 3, k = 2, f = 0: q = 3-fold covering in the ORC setting *)
  let strat = Mray.make (P.make ~m:3 ~k:2 ~f:0) in
  let turns = Orc.of_mray_group strat in
  let lambda = Mray.predicted_ratio strat +. 1e-6 in
  check_bool "3-fold covered" true
    (Orc.check turns ~demand:3 ~lambda ~n:300. = Sweep.Covered)

(* ------------------------------------------------------------------ *)
(* Assigned *)

let mu31 = (lam31 -. 1.) /. 2.

let test_assigned_build_complete_orc () =
  let turns = turns31 () in
  match A.build A.Orc_setting ~mu:mu31 ~demand:4 ~turns ~up_to:200. () with
  | A.Complete ivs ->
      check_bool "nonempty" true (List.length ivs > 8)
  | A.Stuck { frontier; _ } -> Alcotest.failf "stuck at %g" frontier

let test_assigned_build_complete_line () =
  let turns = turns31 () in
  match A.build A.Line_symmetric ~mu:mu31 ~demand:1 ~turns ~up_to:200. () with
  | A.Complete ivs -> check_bool "nonempty" true (List.length ivs > 5)
  | A.Stuck { frontier; _ } -> Alcotest.failf "stuck at %g" frontier

let test_assigned_intervals_start_at_frontier () =
  (* exactness: each interval's left end is the frontier when added, so
     replaying the multiset reproduces the lefts *)
  let turns = turns31 () in
  match A.build A.Orc_setting ~mu:mu31 ~demand:4 ~turns ~up_to:100. () with
  | A.Stuck _ -> Alcotest.fail "stuck"
  | A.Complete ivs ->
      let ms = ref (List.init 4 (fun _ -> 1.)) in
      List.iter
        (fun (iv : A.interval) ->
          (match !ms with
          | a :: rest ->
              checkf6 "left = frontier" a iv.A.left;
              let rec ins x = function
                | [] -> [ x ]
                | y :: r -> if x <= y then x :: y :: r else y :: ins x r
              in
              ms := ins iv.A.turn rest
          | [] -> Alcotest.fail "empty multiset"))
        ivs

let test_assigned_respects_load_constraint () =
  (* ORC constraint (14): when an interval starts at a, the owner's load
     before the step is at most mu * a *)
  let turns = turns31 () in
  match A.build A.Orc_setting ~mu:mu31 ~demand:4 ~turns ~up_to:100. () with
  | A.Stuck _ -> Alcotest.fail "stuck"
  | A.Complete ivs ->
      let loads = Array.make 3 0. in
      List.iter
        (fun (iv : A.interval) ->
          check_bool "L <= mu a" true
            (loads.(iv.A.robot) <= (mu31 *. iv.A.left) +. 1e-6);
          loads.(iv.A.robot) <- loads.(iv.A.robot) +. iv.A.turn)
        ivs

let test_assigned_line_constraint () =
  (* line constraint (5): turn <= mu a - load *)
  let turns = turns31 () in
  match A.build A.Line_symmetric ~mu:mu31 ~demand:1 ~turns ~up_to:100. () with
  | A.Stuck _ -> Alcotest.fail "stuck"
  | A.Complete ivs ->
      let loads = Array.make 3 0. in
      List.iter
        (fun (iv : A.interval) ->
          check_bool "t <= mu a - L" true
            (iv.A.turn <= (mu31 *. iv.A.left) -. loads.(iv.A.robot) +. 1e-6);
          loads.(iv.A.robot) <- loads.(iv.A.robot) +. iv.A.turn)
        ivs

let test_assigned_stuck_when_impossible () =
  (* at mu = 1 a doubling robot's round intervals [2^(i-1) - 1, 2^(i-1)]
     have interior multiplicity at most 1: 2-fold coverage is impossible
     and the greedy must get stuck.  (At larger mu a single ORC robot CAN
     multi-cover — rounds count separately — which is why this test pins
     mu = 1.) *)
  match
    A.build A.Orc_setting ~mu:1. ~demand:2 ~turns:[| doubling |] ~up_to:50. ()
  with
  | A.Stuck _ -> ()
  | A.Complete _ -> Alcotest.fail "impossible demand satisfied"

let test_assigned_loads_accessor () =
  let ivs =
    [
      { A.robot = 0; left = 1.; turn = 2. };
      { A.robot = 1; left = 1.; turn = 3. };
      { A.robot = 0; left = 2.; turn = 5. };
    ]
  in
  let l = A.loads ivs ~robots:2 in
  checkf6 "robot 0" 7. l.(0);
  checkf6 "robot 1" 3. l.(1)

(* ------------------------------------------------------------------ *)
(* Potential *)

let test_potential_delta_matches_lemma () =
  checkf6 "line delta"
    (Search_bounds.Lemma.delta ~s:1 ~k:3 ~mu:2.)
    (Pot.delta A.Line_symmetric ~k:3 ~demand:1 ~mu:2.);
  checkf6 "orc delta uses q - k"
    (Search_bounds.Lemma.delta ~s:1 ~k:3 ~mu:2.)
    (Pot.delta A.Orc_setting ~k:3 ~demand:4 ~mu:2.)

let test_potential_step_ratios_at_bound () =
  (* at exactly lambda0, delta = 1 and every step ratio is >= 1 *)
  let turns = turns31 () in
  (match A.build A.Orc_setting ~mu:mu31 ~demand:4 ~turns ~up_to:300. () with
  | A.Stuck _ -> Alcotest.fail "stuck"
  | A.Complete ivs ->
      let tr = Pot.analyze A.Orc_setting ~k:3 ~demand:4 ~mu:mu31 ivs in
      checkf6 "delta is 1" 1. tr.Pot.delta;
      List.iter
        (fun st ->
          match st.Pot.step_ratio with
          | Some r ->
              check_bool
                (Printf.sprintf "step %d ratio >= delta" st.Pot.index)
                true
                (r >= tr.Pot.delta -. 1e-6)
          | None -> ())
        tr.Pot.steps;
      check_bool "bounded by ceiling" true (not tr.Pot.exceeded));
  match A.build A.Line_symmetric ~mu:mu31 ~demand:1 ~turns ~up_to:300. () with
  | A.Stuck _ -> Alcotest.fail "stuck"
  | A.Complete ivs ->
      let tr = Pot.analyze A.Line_symmetric ~k:3 ~demand:1 ~mu:mu31 ivs in
      List.iter
        (fun st ->
          match st.Pot.step_ratio with
          | Some r -> check_bool "line ratio >= 1" true (r >= 1. -. 1e-6)
          | None -> ())
        tr.Pot.steps;
      check_bool "line bounded" true (not tr.Pot.exceeded)

let test_potential_growth_below_bound () =
  (* a single robot covering [1, ~1.9] at lambda = 8 < 9: steps must grow
     the potential by at least delta(mu=3.5) each *)
  let padded =
    Turning.of_list_then [ 0.5; 1.0; 1.9; 3.5 ]
      (fun i -> 3.5 *. (2. ** float_of_int (i - 4)))
  in
  let mu = 3.5 in
  match A.build A.Line_symmetric ~mu ~demand:1 ~turns:[| padded |] ~up_to:1.85 () with
  | A.Stuck { frontier; _ } -> Alcotest.failf "stuck at %g" frontier
  | A.Complete ivs ->
      let tr = Pot.analyze A.Line_symmetric ~k:1 ~demand:1 ~mu ivs in
      check_bool "delta > 1 below bound" true (tr.Pot.delta > 1.);
      List.iter
        (fun st ->
          match st.Pot.step_ratio with
          | Some r ->
              check_bool "growth at least delta" true (r >= tr.Pot.delta -. 1e-6)
          | None -> ())
        tr.Pot.steps

let test_potential_ceiling_respected_on_valid_covers () =
  (* eq (8): any valid assignment keeps ln f <= ks ln mu *)
  let turns = turns31 () in
  List.iter
    (fun slack ->
      let mu = mu31 *. slack in
      match A.build A.Line_symmetric ~mu ~demand:1 ~turns ~up_to:200. () with
      | A.Stuck _ -> () (* narrower mu may legitimately fail *)
      | A.Complete ivs ->
          let tr = Pot.analyze A.Line_symmetric ~k:3 ~demand:1 ~mu ivs in
          check_bool
            (Printf.sprintf "ceiling at slack %g" slack)
            true (not tr.Pot.exceeded))
    [ 1.0; 1.05; 1.2 ]

(* ------------------------------------------------------------------ *)
(* Certificate *)

let test_cert_gap_below_bound () =
  let turns = turns31 () in
  (match Cert.check_line ~turns ~f:1 ~lambda:(lam31 -. 0.05) ~n:500. () with
  | Cert.Refuted_gap { multiplicity; demand; _ } ->
      check_int "demand s=1" 1 demand;
      check_int "gap multiplicity" 0 multiplicity
  | v -> Alcotest.failf "expected gap refutation, got %a" Cert.pp_verdict v);
  match Cert.check_orc ~turns ~demand:4 ~lambda:(lam31 -. 0.05) ~n:500. () with
  | Cert.Refuted_gap { demand; _ } -> check_int "demand q=4" 4 demand
  | v -> Alcotest.failf "expected gap refutation, got %a" Cert.pp_verdict v

let test_cert_not_refuted_at_bound () =
  let turns = turns31 () in
  (match Cert.check_line ~turns ~f:1 ~lambda:(lam31 +. 1e-6) ~n:500. () with
  | Cert.Not_refuted { delta; _ } ->
      check_bool "delta <= 1 above the bound" true (delta <= 1.)
  | v -> Alcotest.failf "expected not-refuted, got %a" Cert.pp_verdict v);
  match Cert.check_orc ~turns ~demand:4 ~lambda:(lam31 +. 1e-6) ~n:500. () with
  | Cert.Not_refuted _ -> ()
  | v -> Alcotest.failf "expected not-refuted, got %a" Cert.pp_verdict v

let test_cert_finite_cover_below_bound_consistent () =
  (* a padded strategy covering a short prefix below the bound is NOT
     refuted on that prefix (finite horizons are coverable) *)
  let padded =
    Turning.of_list_then [ 0.5; 1.0; 1.9; 3.5 ]
      (fun i -> 3.5 *. (2. ** float_of_int (i - 4)))
  in
  match Cert.check_line ~turns:[| padded |] ~f:0 ~lambda:8. ~n:1.85 () with
  | Cert.Not_refuted { delta; _ } -> check_bool "delta > 1" true (delta > 1.)
  | v -> Alcotest.failf "expected not-refuted, got %a" Cert.pp_verdict v

let test_cert_validation () =
  let turns = turns31 () in
  (match Cert.check_line ~turns ~f:0 ~lambda:5. ~n:10. () with
  | exception Invalid_argument _ -> () (* s = 2*1 - 3 < 1 *)
  | _ -> Alcotest.fail "bad s accepted");
  match Cert.check_orc ~turns ~demand:3 ~lambda:5. ~n:10. () with
  | exception Invalid_argument _ -> () (* demand <= k *)
  | _ -> Alcotest.fail "demand <= k accepted"

let test_cert_threshold_bisection () =
  (* the lambda at which the optimal strategy's coverage kicks in is the
     theorem's bound, up to horizon effects *)
  let turns = turns31 () in
  let check ~lambda =
    Sym.check turns ~demand:1 ~lambda ~n:300. = Sweep.Covered
  in
  let thr = Cert.coverage_threshold_lambda ~check ~lo:3. ~hi:9. () in
  check_bool "threshold within 1e-3 of lambda0" true
    (Float.abs (thr -. lam31) < 1e-3)

let test_cert_log_horizon_bound () =
  (* finite below the bound, infinite at/above, increasing toward it *)
  let lhb lambda =
    Cert.log_horizon_bound A.Line_symmetric ~k:3 ~demand:1 ~lambda ()
  in
  check_bool "infinite at the bound" true
    (Float.equal (lhb (lam31 +. 1e-9)) infinity);
  let a = lhb (lam31 -. 0.5) and b = lhb (lam31 -. 0.1) in
  check_bool "finite below" true (Float.is_finite a && Float.is_finite b);
  check_bool "grows toward the bound" true (a < b)

let test_cert_horizon_bound_dominates_construction () =
  (* whatever we actually manage to cover below the bound stays under the
     theoretical horizon bound *)
  let lambda = 8. in
  let padded =
    Turning.of_list_then [ 0.5; 1.0; 1.9; 3.5 ]
      (fun i -> 3.5 *. (2. ** float_of_int (i - 4)))
  in
  let covered = Sym.max_covered [| padded |] ~demand:1 ~lambda ~n:1e6 in
  let lhb =
    Cert.log_horizon_bound A.Line_symmetric ~k:1 ~demand:1 ~lambda ()
  in
  check_bool "construction below theory" true (log covered < lhb)

(* ------------------------------------------------------------------ *)
(* Fractional *)

let test_frac_uniform_fleet_covers () =
  (* the integer q-fold cover with k robots is an eta = q/k fractional
     cover with weights 1/k *)
  let turns = turns31 () in
  let fleet = Frac.uniform_fleet ~k:3 turns in
  let eta = 4. /. 3. in
  check_bool "covered at lambda0" true
    (Frac.check fleet ~eta ~lambda:(lam31 +. 1e-6) ~n:300. = Frac.Covered)

let test_frac_gap_below () =
  let turns = turns31 () in
  let fleet = Frac.uniform_fleet ~k:3 turns in
  match Frac.check fleet ~eta:(4. /. 3.) ~lambda:(lam31 -. 0.05) ~n:300. with
  | Frac.Covered -> Alcotest.fail "covered below the bound"
  | Frac.Gap { weight; _ } ->
      check_bool "weight short of eta" true (weight < (4. /. 3.))

let test_frac_split_preserves_coverage () =
  let turns = turns31 () in
  let fleet = Frac.uniform_fleet ~k:3 turns in
  let split_fleet =
    List.concat_map (fun w -> Frac.split w ~parts:3) fleet
  in
  let eta = 4. /. 3. in
  check_bool "split fleet still covers" true
    (Frac.check split_fleet ~eta ~lambda:(lam31 +. 1e-6) ~n:300. = Frac.Covered);
  checkf6 "total weight preserved" 1.
    (List.fold_left (fun a w -> a +. w.Frac.weight) 0. split_fleet)

let test_frac_upper_approximations_converge () =
  let eta = 2.5 in
  let approxs = Frac.upper_approximations ~eta ~count:8 in
  let values = List.map snd approxs in
  let target = Frac.c_eta eta in
  (* all above the limit, decreasing toward it *)
  List.iter
    (fun v -> check_bool "above C(eta)" true (v >= target -. 1e-9))
    values;
  let last = List.nth values (List.length values - 1) in
  check_bool "last within 1e-3" true (last -. target < 1e-3)

let test_frac_lower_bound_eps_converges () =
  let eta = 2.5 in
  let target = Frac.c_eta eta in
  let v1 = Frac.lower_bound_eps ~eta ~eps:0.1 in
  let v2 = Frac.lower_bound_eps ~eta ~eps:0.01 in
  let v3 = Frac.lower_bound_eps ~eta ~eps:0.001 in
  check_bool "increasing in precision" true (v1 < v2 && v2 < v3);
  check_bool "below the limit" true (v3 <= target);
  check_bool "close" true (target -. v3 < 0.05)

let test_frac_c_eta_anchors () =
  checkf6 "C(2) = 9" 9. (Frac.c_eta 2.);
  checkf6 "C(3/2) matches lambda0(3,2)" (F.lambda0 ~q:3 ~k:2) (Frac.c_eta 1.5)



(* ------------------------------------------------------------------ *)
(* Certificate_io *)

module CIO = Search_covering.Certificate_io

let cert_roundtrip verdict =
  let json_s =
    CIO.export_string ~setting:A.Line_symmetric ~k:3 ~demand:1
      ~lambda:(0.99 *. lam31) ~n:200. verdict
  in
  match CIO.parse_string json_s with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_cio_roundtrip_gap () =
  let turns = turns31 () in
  let verdict =
    Cert.check_line ~turns ~f:1 ~lambda:(0.99 *. lam31) ~n:200. ()
  in
  let p = cert_roundtrip verdict in
  check_int "k" 3 p.CIO.k;
  check_int "demand" 1 p.CIO.demand;
  (match (verdict, p.CIO.kind) with
  | ( Cert.Refuted_gap { at; multiplicity; _ },
      CIO.Refuted_gap { at = at'; multiplicity = m' } ) ->
      checkf6 "witness" at at';
      check_int "multiplicity" multiplicity m'
  | _ -> Alcotest.fail "kind mismatch")

let test_cio_roundtrip_not_refuted () =
  let turns = turns31 () in
  let verdict = Cert.check_line ~turns ~f:1 ~lambda:(lam31 +. 1e-6) ~n:200. () in
  let json_s =
    CIO.export_string ~setting:A.Line_symmetric ~k:3 ~demand:1
      ~lambda:(lam31 +. 1e-6) ~n:200. verdict
  in
  match CIO.parse_string json_s with
  | Ok { CIO.kind = CIO.Not_refuted { delta }; _ } ->
      check_bool "delta at the bound" true (Float.abs (delta -. 1.) < 1e-3)
  | Ok _ -> Alcotest.fail "wrong kind"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_cio_recheck_confirms () =
  let turns = turns31 () in
  let lambda = 0.99 *. lam31 in
  let verdict = Cert.check_line ~turns ~f:1 ~lambda ~n:200. () in
  let json_s =
    CIO.export_string ~setting:A.Line_symmetric ~k:3 ~demand:1 ~lambda ~n:200.
      verdict
  in
  match CIO.parse_string json_s with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p -> (
      match CIO.recheck p ~turns with
      | Ok () -> ()
      | Error e -> Alcotest.failf "recheck: %s" e)

let test_cio_recheck_detects_tampering () =
  (* a certificate claiming "not refuted" at a sub-bound lambda must be
     rejected on recheck (the recomputation refutes) *)
  let turns = turns31 () in
  let tampered =
    {
      CIO.setting = A.Line_symmetric;
      k = 3;
      demand = 1;
      lambda = 0.99 *. lam31;
      n = 200.;
      kind = CIO.Not_refuted { delta = 1.0 };
    }
  in
  match CIO.recheck tampered ~turns with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered certificate confirmed"

let test_cio_recheck_wrong_k () =
  let turns = turns31 () in
  let lambda = 0.99 *. lam31 in
  let verdict = Cert.check_line ~turns ~f:1 ~lambda ~n:200. () in
  let json_s =
    CIO.export_string ~setting:A.Line_symmetric ~k:3 ~demand:1 ~lambda ~n:200.
      verdict
  in
  match CIO.parse_string json_s with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p -> (
      match CIO.recheck p ~turns:[| doubling |] with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "wrong arity accepted")

let test_cio_parse_rejects_garbage () =
  (match CIO.parse_string "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty object accepted");
  match CIO.parse_string "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-json accepted"


let build_doc () =
  let turns = turns31 () in
  match A.build A.Orc_setting ~mu:mu31 ~demand:4 ~turns ~up_to:100. () with
  | A.Complete ivs ->
      {
        CIO.a_setting = A.Orc_setting;
        a_k = 3;
        a_demand = 4;
        a_mu = mu31;
        intervals = ivs;
      }
  | A.Stuck _ -> Alcotest.fail "assignment stuck"

let test_cio_assignment_roundtrip () =
  let doc = build_doc () in
  let json = CIO.export_assignment doc in
  match CIO.parse_assignment json with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok doc' ->
      check_int "interval count preserved"
        (List.length doc.CIO.intervals)
        (List.length doc'.CIO.intervals);
      check_bool "identical" true (doc = doc')

let test_cio_assignment_checks () =
  let doc = build_doc () in
  match CIO.check_assignment doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid assignment rejected: %s" e

let test_cio_assignment_detects_gap () =
  (* drop an interval: the frontier no longer matches the next left end *)
  let doc = build_doc () in
  let tampered =
    match doc.CIO.intervals with
    | a :: _ :: rest -> { doc with CIO.intervals = a :: rest }
    | _ -> Alcotest.fail "too few intervals"
  in
  match CIO.check_assignment tampered with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "gapped assignment accepted"

let test_cio_assignment_detects_overload () =
  (* attribute every interval to robot 0: its load constraint breaks *)
  let doc = build_doc () in
  let tampered =
    {
      doc with
      CIO.intervals =
        List.map (fun iv -> { iv with A.robot = 0 }) doc.CIO.intervals;
    }
  in
  match CIO.check_assignment tampered with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overloaded robot accepted"

(* ------------------------------------------------------------------ *)
(* Frontier *)

module Frontier = Search_covering.Frontier

let test_frontier_validation () =
  (match Frontier.line_single ~lambda:9. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lambda >= 9 accepted");
  match Frontier.line_single ~lambda:0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lambda <= 1 accepted"

let test_frontier_coverage_verified () =
  (* the greedy turns really do 1-fold lambda-cover [1, horizon] *)
  List.iter
    (fun lambda ->
      let r = Frontier.line_single ~lambda in
      let last = r.Frontier.horizon in
      let nsteps = List.length r.Frontier.turns in
      let turns =
        Turning.of_list_then r.Frontier.turns (fun i ->
            last *. (2. ** float_of_int (i - nsteps)))
      in
      match
        Sym.check [| turns |] ~demand:1 ~lambda ~n:(0.999 *. last)
      with
      | Sweep.Covered -> ()
      | Sweep.Gap { at; _ } ->
          Alcotest.failf "lambda=%g: gap at %g (horizon %g)" lambda at last)
    [ 6.0; 7.5; 8.0; 8.7 ]

let test_frontier_is_maximal () =
  (* perturbing any turn upward breaks contiguity; the greedy budget is
     tight: t_i = mu t_{i-1} - sum_{<i} exactly *)
  let lambda = 8.0 in
  let mu = (lambda -. 1.) /. 2. in
  let r = Frontier.line_single ~lambda in
  let rec check sum prev = function
    | [] -> ()
    | t :: rest ->
        Alcotest.(check (float 1e-9))
          "tight budget" ((mu *. prev) -. sum) t;
        check (sum +. t) t rest
  in
  (match r.Frontier.turns with
  | first :: rest ->
      Alcotest.(check (float 1e-9)) "t1 = mu" mu first;
      check first first rest
  | [] -> Alcotest.fail "no turns")

let test_frontier_monotone_and_divergent () =
  let h l = Frontier.line_single_horizon ~lambda:l in
  check_bool "monotone in lambda" true (h 6. < h 7. && h 7. < h 8. && h 8. < h 8.9);
  check_bool "diverges near 9" true (h 8.99 > 1e10)

let test_frontier_below_theoretical_cap () =
  List.iter
    (fun (lambda, reach, cap) ->
      check_bool
        (Printf.sprintf "lambda=%g" lambda)
        true (reach < cap))
    (Frontier.horizon_curve ~lambdas:[ 6.0; 7.0; 8.0; 8.5; 8.9 ])

let test_frontier_discriminant () =
  check_bool "negative below 9" true
    (Frontier.characteristic_discriminant ~lambda:8. < 0.);
  Alcotest.(check (float 1e-12)) "zero at 9" 0.
    (Frontier.characteristic_discriminant ~lambda:9.)

(* ------------------------------------------------------------------ *)
(* properties *)

let gen_line_instance =
  QCheck2.Gen.(
    let* f = int_range 0 2 in
    let* k = int_range (f + 1) ((2 * (f + 1)) - 1) in
    return (k, f))

let prop_optimal_strategy_covers_at_its_bound =
  QCheck2.Test.make ~count:8 ~name:"optimal strategy covers at lambda0 + eps"
    gen_line_instance (fun (k, f) ->
      let strat = Mray.make (P.line ~k ~f) in
      let turns = Orc.of_mray_group strat in
      let lambda = Mray.predicted_ratio strat +. 1e-6 in
      let s = (2 * (f + 1)) - k in
      Sym.check turns ~demand:s ~lambda ~n:200. = Sweep.Covered)

let prop_certificate_refutes_below =
  QCheck2.Test.make ~count:8 ~name:"certificate refutes 1% below the bound"
    gen_line_instance (fun (k, f) ->
      let strat = Mray.make (P.line ~k ~f) in
      let turns = Orc.of_mray_group strat in
      let lambda = 0.99 *. Mray.predicted_ratio strat in
      match Cert.check_line ~turns ~f ~lambda ~n:200. () with
      | Cert.Refuted_gap _ | Cert.Refuted_potential _ -> true
      | Cert.Not_refuted _ | Cert.Inconclusive _ -> false)

let prop_assignment_covers_exactly =
  (* replaying the assignment's intervals gives exact demand-fold coverage
     up to the reached frontier *)
  QCheck2.Test.make ~count:8 ~name:"assignment is exactly demand-fold"
    gen_line_instance (fun (k, f) ->
      let strat = Mray.make (P.line ~k ~f) in
      let turns = Orc.of_mray_group strat in
      let q = 2 * (f + 1) in
      let mu = (Mray.predicted_ratio strat -. 1.) /. 2. in
      match A.build A.Orc_setting ~mu ~demand:q ~turns ~up_to:50. () with
      | A.Stuck _ -> false
      | A.Complete ivs ->
          let module I = Search_numerics.Interval1 in
          let intervals =
            List.filter_map
              (fun (iv : A.interval) ->
                if iv.A.turn > iv.A.left then
                  Some (I.left_open iv.A.left iv.A.turn)
                else None)
              ivs
          in
          (* interior multiplicity is exactly q on (1, 50) *)
          let profile = Sweep.coverage_profile ~within:(1., 50.) intervals in
          List.for_all (fun (_, _, c) -> c = q) profile)


let prop_greedy_assignment_passes_proof_check =
  (* every completed greedy build is a valid standalone proof object *)
  QCheck2.Test.make ~count:8 ~name:"greedy assignments pass check_assignment"
    gen_line_instance (fun (k, f) ->
      let strat = Mray.make (P.line ~k ~f) in
      let turns = Orc.of_mray_group strat in
      let q = 2 * (f + 1) in
      let mu = (Mray.predicted_ratio strat -. 1.) /. 2. in
      match A.build A.Orc_setting ~mu ~demand:q ~turns ~up_to:60. () with
      | A.Stuck _ -> false
      | A.Complete ivs ->
          let doc =
            {
              CIO.a_setting = A.Orc_setting;
              a_k = k;
              a_demand = q;
              a_mu = mu;
              intervals = ivs;
            }
          in
          Result.is_ok (CIO.check_assignment doc))

let prop_refutation_monotone_in_lambda =
  (* if lambda is refuted by a gap, every smaller lambda is too *)
  QCheck2.Test.make ~count:8 ~name:"gap refutation is monotone in lambda"
    gen_line_instance (fun (k, f) ->
      let strat = Mray.make (P.line ~k ~f) in
      let turns = Orc.of_mray_group strat in
      let lam0 = Mray.predicted_ratio strat in
      let refuted lambda =
        match Cert.check_line ~turns ~f ~lambda ~n:200. () with
        | Cert.Refuted_gap _ | Cert.Refuted_potential _ -> true
        | Cert.Not_refuted _ | Cert.Inconclusive _ -> false
      in
      (* 2%% below refuted implies 5%% below refuted *)
      (not (refuted (0.98 *. lam0))) || refuted (0.95 *. lam0))

let prop_max_covered_monotone =
  QCheck2.Test.make ~count:20 ~name:"max_covered monotone in lambda"
    (QCheck2.Gen.(pair (float_range 1.3 3.) (float_range 4. 8.)))
    (fun (alpha, lambda) ->
      let t = Turning.geometric ~alpha () in
      let a = Sym.max_covered [| t |] ~demand:1 ~lambda ~n:1e4 in
      let b = Sym.max_covered [| t |] ~demand:1 ~lambda:(lambda +. 0.5) ~n:1e4 in
      b >= a -. 1e-9)


let test_frontier_multi_reduces_to_single () =
  let a = Frontier.line_single ~lambda:8. in
  let b = Frontier.multi ~lambda:8. ~k:1 ~demand:1 () in
  Alcotest.(check (float 1e-9)) "same horizon" a.Frontier.horizon b.Frontier.horizon;
  check_int "same steps" a.Frontier.steps b.Frontier.steps

let test_frontier_multi_more_robots_reach_further () =
  (* k=3, s=1 (the (3,1) line instance) below its bound 5.233: more
     robots cover further than one robot below ITS bound proportionally;
     directly: reach is monotone in k at a fixed lambda below all bounds *)
  let r1 = Frontier.multi ~lambda:4.8 ~k:2 ~demand:1 () in
  let r2 = Frontier.multi ~lambda:4.8 ~k:3 ~demand:1 () in
  check_bool "monotone in k" true
    (r2.Frontier.horizon >= r1.Frontier.horizon)

let test_frontier_multi_below_cap () =
  let lambda = 5.0 in
  let r = Frontier.multi ~lambda ~k:3 ~demand:1 () in
  let cap =
    Search_covering.Certificate.log_horizon_bound A.Line_symmetric ~k:3
      ~demand:1 ~lambda ()
  in
  check_bool "below theory cap" true (log r.Frontier.horizon < cap)

let test_frontier_multi_rejects_above_bound () =
  match Frontier.multi ~lambda:9.5 ~k:1 ~demand:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lambda above the bound accepted"

let test_frontier_multi_assignment_is_valid_proof_object () =
  (* the greedy-max turns, replayed as an assignment, pass the standalone
     proof-object check *)
  let lambda = 5.0 in
  let mu = (lambda -. 1.) /. 2. in
  let r = Frontier.multi ~lambda ~k:3 ~demand:1 () in
  (* rebuild intervals: lefts are the running frontier; with demand 1 the
     frontier is just the previous turn *)
  let _, intervals =
    List.fold_left
      (fun (a, acc) t ->
        (* attribute turns round-robin as the greedy would: recompute by
           min-load, mirroring the builder *)
        (t, (a, t) :: acc))
      (1., []) r.Frontier.turns
  in
  let loads = Array.make 3 0. in
  let ivs =
    List.map
      (fun (left, turn) ->
        (* the robot with the smallest load at that moment *)
        let best = ref 0 in
        for i = 1 to 2 do
          if loads.(i) < loads.(!best) then best := i
        done;
        loads.(!best) <- loads.(!best) +. turn;
        { A.robot = !best; left; turn })
      (List.rev intervals)
  in
  let doc =
    {
      CIO.a_setting = A.Line_symmetric;
      a_k = 3;
      a_demand = 1;
      a_mu = mu;
      intervals = ivs;
    }
  in
  match CIO.check_assignment doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "greedy-max object rejected: %s" e

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_optimal_strategy_covers_at_its_bound;
      prop_greedy_assignment_passes_proof_check;
      prop_refutation_monotone_in_lambda;
      prop_max_covered_monotone;
      prop_certificate_refutes_below;
      prop_assignment_covers_exactly;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "covering"
    [
      ( "symmetric",
        [
          tc "optimal covers at bound" `Quick test_sym_optimal_covers_at_bound;
          tc "fails below bound" `Quick test_sym_fails_below_bound;
          tc "doubling cow at nine" `Quick test_sym_doubling_cow_at_nine;
          tc "max_covered monotone" `Quick test_sym_max_covered_monotone_in_lambda;
          tc "intervals in window" `Quick test_sym_intervals_within_window;
          tc "rejects lambda <= 1 and nan" `Quick test_sym_rejects_bad_lambda;
          tc "kernels match references bitwise" `Quick
            test_kernels_match_reference;
        ] );
      ( "orc",
        [
          tc "q-fold at bound" `Quick test_orc_optimal_covers_qfold;
          tc "demand strictness" `Quick test_orc_demand_strictness;
          tc "of_mray geometric" `Quick test_orc_of_mray_geometric;
          tc "m-ray covering demand" `Quick test_orc_mray_covering_demand;
          tc "rejects lambda <= 1 and nan" `Quick test_orc_rejects_bad_lambda;
        ] );
      ( "assigned",
        [
          tc "build complete (ORC)" `Quick test_assigned_build_complete_orc;
          tc "build complete (line)" `Quick test_assigned_build_complete_line;
          tc "intervals start at frontier" `Quick
            test_assigned_intervals_start_at_frontier;
          tc "ORC load constraint" `Quick test_assigned_respects_load_constraint;
          tc "line turn constraint" `Quick test_assigned_line_constraint;
          tc "stuck when impossible" `Quick test_assigned_stuck_when_impossible;
          tc "loads accessor" `Quick test_assigned_loads_accessor;
        ] );
      ( "potential",
        [
          tc "delta matches lemma" `Quick test_potential_delta_matches_lemma;
          tc "step ratios at the bound" `Quick test_potential_step_ratios_at_bound;
          tc "growth below the bound" `Quick test_potential_growth_below_bound;
          tc "ceiling on valid covers" `Quick
            test_potential_ceiling_respected_on_valid_covers;
        ] );
      ( "certificate",
        [
          tc "gap refutation below" `Quick test_cert_gap_below_bound;
          tc "not refuted at bound" `Quick test_cert_not_refuted_at_bound;
          tc "finite cover consistent" `Quick
            test_cert_finite_cover_below_bound_consistent;
          tc "validation" `Quick test_cert_validation;
          tc "threshold bisection" `Quick test_cert_threshold_bisection;
          tc "log horizon bound" `Quick test_cert_log_horizon_bound;
          tc "horizon bound dominates" `Quick
            test_cert_horizon_bound_dominates_construction;
        ] );
      ( "certificate_io",
        [
          tc "roundtrip gap" `Quick test_cio_roundtrip_gap;
          tc "roundtrip not-refuted" `Quick test_cio_roundtrip_not_refuted;
          tc "recheck confirms" `Quick test_cio_recheck_confirms;
          tc "recheck detects tampering" `Quick test_cio_recheck_detects_tampering;
          tc "recheck wrong arity" `Quick test_cio_recheck_wrong_k;
          tc "rejects garbage" `Quick test_cio_parse_rejects_garbage;
          tc "assignment roundtrip" `Quick test_cio_assignment_roundtrip;
          tc "assignment checks" `Quick test_cio_assignment_checks;
          tc "assignment gap detected" `Quick test_cio_assignment_detects_gap;
          tc "assignment overload detected" `Quick
            test_cio_assignment_detects_overload;
        ] );
      ( "frontier",
        [
          tc "validation" `Quick test_frontier_validation;
          tc "coverage verified" `Quick test_frontier_coverage_verified;
          tc "greedy is tight" `Quick test_frontier_is_maximal;
          tc "monotone and divergent" `Quick test_frontier_monotone_and_divergent;
          tc "below theoretical cap" `Quick test_frontier_below_theoretical_cap;
          tc "discriminant" `Quick test_frontier_discriminant;
          tc "multi reduces to single" `Quick test_frontier_multi_reduces_to_single;
          tc "multi monotone in k" `Quick test_frontier_multi_more_robots_reach_further;
          tc "multi below cap" `Quick test_frontier_multi_below_cap;
          tc "multi rejects above bound" `Quick test_frontier_multi_rejects_above_bound;
          tc "multi is a proof object" `Quick
            test_frontier_multi_assignment_is_valid_proof_object;
        ] );
      ( "fractional",
        [
          tc "uniform fleet covers" `Quick test_frac_uniform_fleet_covers;
          tc "gap below" `Quick test_frac_gap_below;
          tc "split preserves coverage" `Quick test_frac_split_preserves_coverage;
          tc "upper approximations" `Quick test_frac_upper_approximations_converge;
          tc "lower bound eps" `Quick test_frac_lower_bound_eps_converges;
          tc "C(eta) anchors" `Quick test_frac_c_eta_anchors;
        ] );
      ("properties", properties);
    ]
