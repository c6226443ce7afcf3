(* Tests for the closed-form bounds: parameters and regimes, the formulas
   of Theorems 1 and 6 and eq. (11), Lemmas 4 and 5, the Byzantine
   transfer, and the asymptotic identities. *)

module P = Search_bounds.Params
module E = Search_numerics.Search_error
module F = Search_bounds.Formulas
module L = Search_bounds.Lemma
module B = Search_bounds.Byzantine
module A = Search_bounds.Asymptotics

let checkf = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_make () =
  let p = P.make ~m:3 ~k:2 ~f:1 in
  check_int "q" 6 (P.q p);
  check_int "s" 4 (P.s p);
  checkf "rho" 3. (P.rho p)

let test_params_line () =
  let p = P.line ~k:3 ~f:1 in
  check_int "m is 2" 2 p.P.m;
  check_int "q = 2(f+1)" 4 (P.q p);
  check_int "s = 2(f+1)-k" 1 (P.s p)

let test_params_validation () =
  let expect_invalid name f =
    match f () with
    | exception
        Search_numerics.Search_error.Error
          (Search_numerics.Search_error.Regime_violation _) ->
        ()
    | _ -> Alcotest.failf "%s should be invalid" name
  in
  expect_invalid "m=1" (fun () -> P.make ~m:1 ~k:1 ~f:0);
  expect_invalid "k=0" (fun () -> P.make ~m:2 ~k:0 ~f:0);
  expect_invalid "f<0" (fun () -> P.make ~m:2 ~k:1 ~f:(-1));
  expect_invalid "f>k" (fun () -> P.make ~m:2 ~k:1 ~f:2)

let test_params_regimes () =
  let regime m k f = P.regime (P.make ~m ~k ~f) in
  check_bool "f=k unsolvable" true (regime 2 2 2 = P.Unsolvable);
  check_bool "k >= m(f+1) ratio one" true (regime 2 4 1 = P.Ratio_one);
  check_bool "exactly k = m(f+1)" true (regime 3 3 0 = P.Ratio_one);
  check_bool "searching" true (regime 2 3 1 = P.Searching);
  check_bool "single robot" true (regime 2 1 0 = P.Searching);
  (* the f = k boundary: (m=2, k=1, f=1) is unsolvable *)
  check_bool "k=f=1" true (regime 2 1 1 = P.Unsolvable)

(* ------------------------------------------------------------------ *)
(* Formulas: anchor values *)

let test_cow_path_is_nine () =
  checkf "A(1,0) on the line" 9. F.cow_path;
  checkf "via a_line" 9. (F.a_line ~k:1 ~f:0)

let test_known_line_values () =
  (* k=2, f=1: s=2, rho=2 -> 9 *)
  checkf "A(2,1) = 9" 9. (F.a_line ~k:2 ~f:1);
  (* k=3, f=1: the paper's headline B(3,1) >= 8/3 * 4^(1/3) + 1 *)
  checkf "A(3,1)"
    ((8. /. 3. *. (4. ** (1. /. 3.))) +. 1.)
    (F.a_line ~k:3 ~f:1);
  (* ratio-one regime *)
  checkf "A(4,1) = 1" 1. (F.a_line ~k:4 ~f:1);
  check_bool "A(k,k) = inf" true (Float.equal (F.a_line ~k:2 ~f:2) infinity)

let test_mray_single_robot () =
  (* 1 + 2 m^m/(m-1)^(m-1) *)
  checkf "m=2" 9. (F.single_robot_mray ~m:2);
  checkf "m=3" (1. +. (2. *. 27. /. 4.)) (F.single_robot_mray ~m:3);
  checkf "m=4" (1. +. (2. *. 256. /. 27.)) (F.single_robot_mray ~m:4)

let test_mray_reduces_to_line () =
  (* substituting m = 2 in (9) gives (1) *)
  List.iter
    (fun (k, f) ->
      checkf
        (Printf.sprintf "m=2 k=%d f=%d" k f)
        (F.a_line ~k ~f) (F.a_mray ~m:2 ~k ~f))
    [ (1, 0); (2, 1); (3, 1); (5, 2); (7, 3); (4, 1) ]

let test_mu_rho_scale_invariance () =
  (* mu(q,k) depends only on rho = q/k *)
  List.iter
    (fun (q, k) ->
      checkf
        (Printf.sprintf "mu(%d,%d) = mu_rho" q k)
        (F.mu_rho (float_of_int q /. float_of_int k))
        (F.mu ~q ~k))
    [ (2, 1); (4, 3); (6, 2); (5, 4); (12, 5) ]

let test_mu_boundary () =
  checkf "mu(q,q) = 1 (0^0 convention)" 1. (F.mu ~q:3 ~k:3);
  checkf "lambda0 at boundary = 3" 3. (F.lambda0 ~q:3 ~k:3);
  checkf "mu_rho 1 = 1" 1. (F.mu_rho 1.)

let test_mu_validation () =
  Alcotest.check_raises "k > q"
    (E.Error
       (E.Invalid_input { where = "Formulas.mu"; what = "need 0 < k <= q" }))
    (fun () -> ignore (F.mu ~q:2 ~k:3))

let test_c_eta () =
  checkf "C(2) = 9" 9. (F.c_eta 2.);
  checkf "C(1) = 3 (continuity)" 3. (F.c_eta 1.);
  (* C(eta) matches lambda0 on rationals: eta = 3/2 *)
  checkf "C(3/2) = lambda0(3,2)" (F.lambda0 ~q:3 ~k:2) (F.c_eta 1.5)

let test_alpha_star () =
  checkf "cow path doubles" 2. (F.alpha_star ~q:2 ~k:1);
  (* alpha* satisfies alpha^k = q/(q-k) *)
  let a = F.alpha_star ~q:6 ~k:4 in
  checkf "defining identity" (6. /. 2.) (a ** 4.);
  Alcotest.check_raises "k = q invalid"
    (E.Error
       (E.Invalid_input
          { where = "Formulas.alpha_star"; what = "need 0 < k < q" }))
    (fun () -> ignore (F.alpha_star ~q:3 ~k:3))

let test_exponential_ratio_at_optimum () =
  (* at alpha*, the exponential strategy achieves exactly lambda0 *)
  List.iter
    (fun (q, k) ->
      let alpha = F.alpha_star ~q ~k in
      checkf
        (Printf.sprintf "q=%d k=%d" q k)
        (F.lambda0 ~q ~k)
        (F.exponential_ratio ~q ~k ~alpha))
    [ (2, 1); (4, 3); (6, 2); (9, 4); (10, 7) ]

let test_exponential_ratio_suboptimal () =
  (* any other base does strictly worse *)
  let q = 4 and k = 3 in
  let opt = F.lambda0 ~q ~k in
  List.iter
    (fun alpha ->
      check_bool
        (Printf.sprintf "alpha=%g worse" alpha)
        true
        (F.exponential_ratio ~q ~k ~alpha > opt +. 1e-9))
    [ 1.1; 1.3; 2.0; 3.0 ]

let test_of_params () =
  checkf "dispatch searching" (F.a_line ~k:3 ~f:1)
    (F.of_params (P.line ~k:3 ~f:1));
  checkf "dispatch ratio-one" 1. (F.of_params (P.line ~k:4 ~f:1))

(* ------------------------------------------------------------------ *)
(* Lemma 4 and 5 *)

let test_lemma4_argmax () =
  (* the stated maximiser beats its neighbourhood *)
  let s = 2 and k = 3 and mu_star = 5. in
  let x0 = L.argmax ~s ~k ~mu_star in
  checkf "closed form" (2. *. 5. /. 5.) x0;
  let v0 = L.poly ~s ~k ~mu_star x0 in
  List.iter
    (fun dx ->
      check_bool
        (Printf.sprintf "beats x0 + %g" dx)
        true
        (v0 >= L.poly ~s ~k ~mu_star (x0 +. dx)))
    [ -0.5; -0.1; -0.01; 0.01; 0.1; 0.5 ]

let test_lemma5_pointwise () =
  (* ratio(x) >= ratio_lower_bound for a grid of x *)
  let s = 3 and k = 2 and mu_star = 4. in
  let lb = L.ratio_lower_bound ~s ~k ~mu_star in
  for i = 1 to 19 do
    let x = mu_star *. float_of_int i /. 20. in
    check_bool
      (Printf.sprintf "x = %g" x)
      true
      (L.ratio ~s ~k ~mu_star ~x >= lb -. 1e-9)
  done

let test_lemma5_equality_at_argmax () =
  let s = 3 and k = 2 and mu_star = 4. in
  let x0 = L.argmax ~s ~k ~mu_star in
  checkf "tight at the maximiser"
    (L.ratio_lower_bound ~s ~k ~mu_star)
    (L.ratio ~s ~k ~mu_star ~x:x0)

let test_delta_threshold () =
  (* delta > 1 iff mu < mu(q,k); delta = 1 at the bound *)
  let k = 3 and s = 1 in
  let mu_bound = F.mu ~q:(k + s) ~k in
  checkf "delta at bound = 1" 1. (L.delta ~s ~k ~mu:mu_bound);
  check_bool "delta below bound > 1" true
    (L.delta ~s ~k ~mu:(mu_bound *. 0.99) > 1.);
  check_bool "delta above bound < 1" true
    (L.delta ~s ~k ~mu:(mu_bound *. 1.01) < 1.)

let test_ratio_validation () =
  Alcotest.check_raises "x out of range"
    (E.Error
       (E.Invalid_input
          { where = "Lemma.ratio"; what = "need 0 < x < mu_star" }))
    (fun () -> ignore (L.ratio ~s:1 ~k:1 ~mu_star:2. ~x:2.))

(* ------------------------------------------------------------------ *)
(* Byzantine *)

let test_byzantine_b31 () =
  checkf "closed form matches transfer" B.b31_exact (B.lower_bound ~k:3 ~f:1);
  check_bool "about 5.23" true (Float.abs (B.b31_exact -. 5.2331) < 1e-3)

let test_byzantine_improvement () =
  match B.isaac16_priors with
  | { B.k = 3; f = 1; isaac16_bound = Some prior } :: _ ->
      checkf "prior is 3.93" 3.93 prior;
      check_bool "improves by > 1.3" true
        (match B.improvement { B.k = 3; f = 1; isaac16_bound = Some prior } with
        | Some d -> d > 1.3
        | None -> false)
  | _ -> Alcotest.fail "expected (3,1) prior first"

let test_byzantine_mray_transfer () =
  checkf "m-ray transfer" (F.a_mray ~m:3 ~k:2 ~f:1)
    (B.lower_bound_mray ~m:3 ~k:2 ~f:1)

(* ------------------------------------------------------------------ *)
(* Asymptotics *)

let test_scale_invariance () =
  check_bool "mu(4,3) = mu(8,6)" true (A.scale_invariant ~q:4 ~k:3 ~c:2);
  check_bool "mu(2,1) = mu(10,5)" true (A.scale_invariant ~q:2 ~k:1 ~c:5)

let test_strictly_decreasing () =
  check_bool "mu(q,k) < mu(q-1,k-1)" true
    (A.strictly_decreasing_in_k ~q:6 ~k:4);
  check_bool "another instance" true (A.strictly_decreasing_in_k ~q:5 ~k:2)

let test_epsilon' () =
  let e = A.epsilon' ~q:6 ~k:4 in
  check_bool "positive gap" true (e > 0.);
  checkf "definition" ((2. *. F.mu ~q:5 ~k:3) -. (2. *. F.mu ~q:6 ~k:4)) e

let test_endpoints () =
  checkf "rho -> 1" A.limit_rho_to_one (A.lambda_of_rho 1.);
  checkf "rho = 2 gives 9" A.lambda_at_two (A.lambda_of_rho 2.)

let test_monotonicity () =
  check_bool "lambda(rho) increasing on [1, 6]" true
    (A.monotone_on ~lo:1. ~hi:6. ~samples:200)


(* ------------------------------------------------------------------ *)
(* Planning *)

module Pl = Search_bounds.Planning

let test_planning_min_robots () =
  (* line, f = 1, budget 6: A(3,1) = 5.233 <= 6 but A(2,1) = 9 > 6 *)
  check_bool "k = 3" true (Pl.min_robots ~m:2 ~f:1 ~lambda:6. = Some 3);
  (* budget 9 is reached already at k = 2 (= 9 exactly) *)
  check_bool "k = 2 at budget 9" true (Pl.min_robots ~m:2 ~f:1 ~lambda:9. = Some 2);
  (* ratio-one fleet always suffices for lambda >= 1 *)
  check_bool "budget 1" true (Pl.min_robots ~m:2 ~f:1 ~lambda:1. = Some 4);
  check_bool "budget below 1" true (Pl.min_robots ~m:2 ~f:1 ~lambda:0.5 = None)

let test_planning_max_faults () =
  (* 5 robots on the line with budget 6: A(5,2) = 4.43 ok, A(5,3) = 6.76 no *)
  check_bool "f = 2" true (Pl.max_faults ~m:2 ~k:5 ~lambda:6. = Some 2);
  (* one robot, budget below 9: not even f = 0 *)
  check_bool "hopeless" true (Pl.max_faults ~m:2 ~k:1 ~lambda:5. = None);
  check_bool "one robot at 9" true (Pl.max_faults ~m:2 ~k:1 ~lambda:9. = Some 0)

let test_planning_achievable () =
  check_bool "searching yes" true (Pl.achievable ~m:2 ~k:3 ~f:1 ~lambda:5.3);
  check_bool "searching no" false (Pl.achievable ~m:2 ~k:3 ~f:1 ~lambda:5.2);
  check_bool "ratio one" true (Pl.achievable ~m:2 ~k:4 ~f:1 ~lambda:1.);
  check_bool "unsolvable" false (Pl.achievable ~m:2 ~k:2 ~f:2 ~lambda:100.);
  check_bool "invalid params" false (Pl.achievable ~m:2 ~k:1 ~f:5 ~lambda:100.)

let test_planning_rho_inverse () =
  checkf "lambda 9 -> rho 2" 2. (Pl.rho_for_lambda ~lambda:9.);
  checkf "lambda 3 -> rho 1" 1. (Pl.rho_for_lambda ~lambda:3.);
  (* roundtrip *)
  let rho = Pl.rho_for_lambda ~lambda:6. in
  checkf "roundtrip" 6. ((2. *. F.mu_rho rho) +. 1.);
  Alcotest.check_raises "below 3"
    (E.Error
       (E.Invalid_input
          { where = "Planning.rho_for_lambda"; what = "need lambda >= 3" }))
    (fun () -> ignore (Pl.rho_for_lambda ~lambda:2.5))

let test_planning_cheapest_fleets () =
  let plans = Pl.cheapest_fleets ~m:2 ~lambda:6. ~max_f:3 in
  check_int "four rows" 4 (List.length plans);
  List.iter
    (fun { Pl.k; f; ratio } ->
      check_bool "achieves" true (ratio <= 6.);
      (* minimality: one fewer robot fails *)
      check_bool "minimal" true
        (k = f + 1 || not (Pl.achievable ~m:2 ~k:(k - 1) ~f ~lambda:6.)))
    plans

let prop_planning_consistent =
  QCheck2.Test.make ~count:200 ~name:"min_robots/achievable consistency"
    (QCheck2.Gen.(
       let* m = int_range 2 5 in
       let* f = int_range 0 3 in
       let* lambda = float_range 1. 20. in
       return (m, f, lambda)))
    (fun (m, f, lambda) ->
      match Pl.min_robots ~m ~f ~lambda with
      | None -> lambda < 1.
      | Some k ->
          Pl.achievable ~m ~k ~f ~lambda
          && (k = f + 1 || not (Pl.achievable ~m ~k:(k - 1) ~f ~lambda)))

(* ------------------------------------------------------------------ *)
(* properties *)

let gen_searching_instance =
  (* random (m, k, f) in the searching regime *)
  let open QCheck2.Gen in
  let* m = int_range 2 6 in
  let* f = int_range 0 3 in
  let q = m * (f + 1) in
  let* k = int_range (f + 1) (q - 1) in
  return (m, k, f)

let prop_bound_at_least_three =
  QCheck2.Test.make ~count:300
    ~name:"searching-regime bound is > 3 (rho > 1 strictly)"
    gen_searching_instance (fun (m, k, f) -> F.a_mray ~m ~k ~f > 3.)

let prop_bound_monotone_in_f =
  QCheck2.Test.make ~count:300 ~name:"more faults never help"
    gen_searching_instance (fun (m, k, f) ->
      let v = F.a_mray ~m ~k ~f in
      let v' = F.a_mray ~m ~k ~f:(min k (f + 1)) in
      v' >= v -. 1e-9)

let prop_bound_monotone_in_k =
  QCheck2.Test.make ~count:300 ~name:"more robots never hurt"
    gen_searching_instance (fun (m, k, f) ->
      F.a_mray ~m ~k:(k + 1) ~f <= F.a_mray ~m ~k ~f +. 1e-9)

let prop_bound_monotone_in_m =
  QCheck2.Test.make ~count:300 ~name:"more rays never help"
    gen_searching_instance (fun (m, k, f) ->
      F.a_mray ~m:(m + 1) ~k ~f >= F.a_mray ~m ~k ~f -. 1e-9)

let prop_lemma5_random =
  let gen =
    QCheck2.Gen.(
      quad (int_range 1 8) (int_range 1 8) (float_range 0.5 10.)
        (float_range 0.01 0.99))
  in
  QCheck2.Test.make ~count:500 ~name:"Lemma 5 pointwise on random inputs" gen
    (fun (s, k, mu_star, t) ->
      let x = t *. mu_star in
      L.ratio ~s ~k ~mu_star ~x >= L.ratio_lower_bound ~s ~k ~mu_star -. 1e-9)

let prop_mu_rho_form_matches =
  QCheck2.Test.make ~count:300 ~name:"(k,s) and rho forms of the bound agree"
    gen_searching_instance (fun (m, k, f) ->
      let q = m * (f + 1) in
      let direct = F.lambda0 ~q ~k in
      let via_rho = (2. *. F.mu_rho (float_of_int q /. float_of_int k)) +. 1. in
      Float.abs (direct -. via_rho) <= 1e-9 *. direct)

let properties =
  Fixture.properties
    [
      prop_planning_consistent;
      prop_bound_at_least_three;
      prop_bound_monotone_in_f;
      prop_bound_monotone_in_k;
      prop_bound_monotone_in_m;
      prop_lemma5_random;
      prop_mu_rho_form_matches;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "bounds"
    [
      ( "params",
        [
          tc "make and derived" `Quick test_params_make;
          tc "line" `Quick test_params_line;
          tc "validation" `Quick test_params_validation;
          tc "regimes" `Quick test_params_regimes;
        ] );
      ( "formulas",
        [
          tc "cow path is 9" `Quick test_cow_path_is_nine;
          tc "known line values" `Quick test_known_line_values;
          tc "single robot m rays" `Quick test_mray_single_robot;
          tc "m=2 reduces to the line" `Quick test_mray_reduces_to_line;
          tc "mu scale invariance" `Quick test_mu_rho_scale_invariance;
          tc "mu boundary" `Quick test_mu_boundary;
          tc "mu validation" `Quick test_mu_validation;
          tc "C(eta)" `Quick test_c_eta;
          tc "alpha star" `Quick test_alpha_star;
          tc "exponential ratio optimal" `Quick test_exponential_ratio_at_optimum;
          tc "exponential ratio suboptimal" `Quick
            test_exponential_ratio_suboptimal;
          tc "of_params" `Quick test_of_params;
        ] );
      ( "lemma",
        [
          tc "lemma 4 argmax" `Quick test_lemma4_argmax;
          tc "lemma 5 pointwise" `Quick test_lemma5_pointwise;
          tc "lemma 5 equality" `Quick test_lemma5_equality_at_argmax;
          tc "delta threshold" `Quick test_delta_threshold;
          tc "ratio validation" `Quick test_ratio_validation;
        ] );
      ( "byzantine",
        [
          tc "B(3,1)" `Quick test_byzantine_b31;
          tc "improvement over ISAAC'16" `Quick test_byzantine_improvement;
          tc "m-ray transfer" `Quick test_byzantine_mray_transfer;
        ] );
      ( "asymptotics",
        [
          tc "scale invariance" `Quick test_scale_invariance;
          tc "strictly decreasing" `Quick test_strictly_decreasing;
          tc "epsilon'" `Quick test_epsilon';
          tc "endpoints 3 and 9" `Quick test_endpoints;
          tc "monotone in rho" `Quick test_monotonicity;
        ] );
      ( "planning",
        [
          tc "min robots" `Quick test_planning_min_robots;
          tc "max faults" `Quick test_planning_max_faults;
          tc "achievable" `Quick test_planning_achievable;
          tc "rho inverse" `Quick test_planning_rho_inverse;
          tc "cheapest fleets" `Quick test_planning_cheapest_fleets;
        ] );
      ("properties", properties);
    ]
