(* Tests for the related-work extensions: the PRNG substrate, CSV
   emission, the randomized cow path (Kao-Reif-Tate), the distance/work
   measure (Kao-Ma-Sipser-Yin), turn costs (Demaine-Fekete-Gal), the
   stochastic (Bellman-Beck) evaluation, and the Case-2 induction
   machinery of Section 3.1. *)

module Prng = Search_numerics.Prng
module Csv = Search_numerics.Csv_out
module R = Search_strategy.Randomized
module WS = Search_sim.Work_schedule
module TC = Search_sim.Turn_cost
module St = Search_sim.Stochastic
module Ind = Search_covering.Induction
module W = Search_sim.World
module Tr = Search_sim.Trajectory
module F = Search_bounds.Formulas
module P = Search_bounds.Params
module A = Search_covering.Assigned
module Sweep = Search_numerics.Sweep

let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a1, _ = Prng.next_int64 (Prng.make ~seed:7) in
  let a2, _ = Prng.next_int64 (Prng.make ~seed:7) in
  check_bool "same seed same stream" true (Int64.equal a1 a2);
  let b1, _ = Prng.next_int64 (Prng.make ~seed:8) in
  check_bool "different seed differs" false (Int64.equal a1 b1)

let test_prng_float_range () =
  let rec loop g i =
    if i < 1000 then begin
      let u, g = Prng.float g in
      check_bool "in [0,1)" true (0. <= u && u < 1.);
      loop g (i + 1)
    end
  in
  loop (Prng.make ~seed:1) 0

let test_prng_uniformity () =
  (* crude mean/variance check over 10k draws *)
  let n = 10_000 in
  let rec loop g i acc acc2 =
    if i = n then (acc /. float_of_int n, acc2 /. float_of_int n)
    else
      let u, g = Prng.float g in
      loop g (i + 1) (acc +. u) (acc2 +. (u *. u))
  in
  let mean, m2 = loop (Prng.make ~seed:99) 0 0. 0. in
  check_bool "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.02);
  check_bool "second moment near 1/3" true (Float.abs (m2 -. (1. /. 3.)) < 0.02)

let test_prng_int_bound () =
  let rec loop g i seen =
    if i = 500 then seen
    else
      let v, g = Prng.int ~bound:6 g in
      check_bool "in range" true (0 <= v && v < 6);
      loop g (i + 1) (if List.mem v seen then seen else v :: seen)
  in
  let seen = loop (Prng.make ~seed:5) 0 [] in
  check_int "all faces seen" 6 (List.length seen)

let test_prng_split_independent () =
  let a, b = Prng.split (Prng.make ~seed:3) in
  let va, _ = Prng.next_int64 a and vb, _ = Prng.next_int64 b in
  check_bool "split streams differ" false (Int64.equal va vb)

let test_prng_int_distribution () =
  (* rejection sampling is exactly uniform; with 20k draws over 10
     buckets each count concentrates near 2000 (sd ~ 42) *)
  let n = 20_000 and bound = 10 in
  let counts = Array.make bound 0 in
  let rec loop g i =
    if i < n then begin
      let v, g = Prng.int ~bound g in
      counts.(v) <- counts.(v) + 1;
      loop g (i + 1)
    end
  in
  loop (Prng.make ~seed:20180723) 0;
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "bucket %d count %d within 2000 +- 200" i c)
        true
        (abs (c - 2000) < 200))
    counts

let test_prng_int_large_bound_reachable () =
  (* the former float-scaling sampler could only produce multiples of
     512 above 2^61 (53-bit mantissa): whole residue classes were
     unreachable.  Rejection sampling reaches them. *)
  let bound = max_int (* 2^62 - 1 *) in
  let high_odd = ref 0 and high = ref 0 in
  let rec loop g i =
    if i < 400 then begin
      let v, g = Prng.int ~bound g in
      check_bool "in range" true (0 <= v && v < bound);
      if v >= 1 lsl 61 then begin
        incr high;
        if v mod 512 <> 0 then incr high_odd
      end;
      loop g (i + 1)
    end
  in
  loop (Prng.make ~seed:11) 0;
  check_bool "about half the draws land in the top half" true (!high > 100);
  check_bool "top-half draws hit residues not divisible by 512" true
    (!high_odd > 0)

let test_prng_split_stream_independence () =
  (* parent pre-split stream, left child and right child: no output of
     any stream may appear in another (the former split seeded the left
     child with a raw parent output, putting its whole stream one gamma
     step from values the parent hands out elsewhere) *)
  let draws g n =
    let rec loop g i acc =
      if i = n then acc
      else
        let v, g = Prng.next_int64 g in
        loop g (i + 1) (v :: acc)
    in
    loop g 0 []
  in
  let root = Prng.make ~seed:42 in
  let l, r = Prng.split root in
  let all = draws root 512 @ draws l 512 @ draws r 512 in
  check_int "all 1536 outputs distinct" 1536
    (List.length (List.sort_uniq Int64.compare all));
  (* and the child streams look uniform: mean of 512 floats near 1/2 *)
  let mean g =
    let rec loop g i acc =
      if i = 512 then acc /. 512.
      else
        let u, g = Prng.float g in
        loop g (i + 1) (acc +. u)
    in
    loop g 0 0.
  in
  check_bool "left child mean near 1/2" true (Float.abs (mean l -. 0.5) < 0.05);
  check_bool "right child mean near 1/2" true (Float.abs (mean r -. 0.5) < 0.05)

(* ------------------------------------------------------------------ *)
(* Csv_out *)

(* Field escaping, observed through the written file. *)
let test_csv_escape () =
  let path = Filename.temp_file "fsearch" ".csv" in
  Csv.write ~path ~header:[ "abc"; "a,b"; "a\"b" ] ~rows:[];
  let header = In_channel.with_open_text path input_line in
  Sys.remove path;
  Alcotest.(check string)
    "plain, comma, quote" "abc,\"a,b\",\"a\"\"b\"" header

let test_csv_write_roundtrip () =
  let path = Filename.temp_file "fsearch" ".csv" in
  Csv.write ~path ~header:[ "x"; "y" ]
    ~rows:[ [ "1"; "2" ]; [ "3"; "4,5" ] ];
  let lines =
    In_channel.with_open_text path (fun ic ->
        List.init 3 (fun _ -> input_line ic))
  in
  Sys.remove path;
  Alcotest.(check (list string)) "content" [ "x,y"; "1,2"; "3,\"4,5\"" ] lines

let test_csv_arity () =
  let path = Filename.temp_file "fsearch" ".csv" in
  (match Csv.write ~path ~header:[ "a" ] ~rows:[ [ "1"; "2" ] ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "arity mismatch accepted");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Randomized (Kao-Reif-Tate) *)

let test_krt_optimal_beta () =
  let b = R.optimal_beta () in
  (* defining equation beta ln beta = beta + 1 *)
  Alcotest.(check (float 1e-9)) "defining equation" (b +. 1.) (b *. log b);
  check_bool "near 3.59112" true (Float.abs (b -. 3.59112) < 1e-4);
  Alcotest.(check (float 1e-9)) "ratio = 1 + beta" (1. +. b) (R.optimal_ratio ())

let test_krt_formula_at_optimum () =
  let b = R.optimal_beta () in
  Alcotest.(check (float 1e-9)) "r(beta*) = 1 + beta*" (1. +. b)
    (R.ratio_formula ~beta:b);
  (* any other beta is worse *)
  List.iter
    (fun beta ->
      check_bool "suboptimal" true (R.ratio_formula ~beta > 1. +. b +. 1e-6))
    [ 2.0; 3.0; 4.5; 6.0 ]

let test_krt_beats_deterministic () =
  check_bool "4.59 < 9" true (R.optimal_ratio () < 9.)

let test_krt_detection_time_concrete () =
  (* u = 0, positive first, beta = 2: turns 2, 4, 8 at +2, -4, +8 *)
  checkf "target +1.5 outbound" 1.5
    (R.detection_time ~beta:2. ~u:0. ~positive_first:true ~x:1.5);
  (* target -3: reached on leg 2 after 2 + 2 + 3 *)
  checkf "target -3" 7.
    (R.detection_time ~beta:2. ~u:0. ~positive_first:true ~x:(-3.))

let test_krt_quadrature_matches_formula () =
  let b = R.optimal_beta () in
  (* exact expected ratio at finite x carries a -2 beta/(x ln beta)
     correction; check both at moderate x *)
  let x = 500. in
  let expected = R.ratio_formula ~beta:b -. (2. *. b /. (x *. log b)) in
  let measured = R.expected_ratio_exact ~beta:b ~x ~grid:2000 in
  check_bool "quadrature within 2e-3" true (Float.abs (measured -. expected) < 2e-3)

let test_krt_monte_carlo_agrees () =
  let b = R.optimal_beta () in
  let mc =
    R.expected_ratio_at ~beta:b ~x:500. ~samples:20_000
      ~prng:(Prng.make ~seed:2024)
  in
  let exact = R.expected_ratio_exact ~beta:b ~x:500. ~grid:2000 in
  check_bool "MC within 0.05 of quadrature" true (Float.abs (mc -. exact) < 0.05)

(* ------------------------------------------------------------------ *)
(* Work_schedule (Kao-Ma-Sipser-Yin distance measure) *)

let test_ws_single_robot_anchor () =
  (* with k = 1 work = time: the classic single-robot values *)
  List.iter
    (fun m ->
      let sched = WS.kmsy ~alpha:(F.alpha_star ~q:m ~k:1) ~m ~k:1 () in
      let out = WS.worst_ratio sched ~n:200. () in
      check_bool
        (Printf.sprintf "m=%d anchor" m)
        true
        (Float.abs (out.WS.ratio -. F.single_robot_mray ~m) < 0.05))
    [ 2; 3; 4 ]

let test_ws_concrete_work () =
  (* k = m = 2: each robot owns a ray and only advances, so a target just
     past depth D on one ray is found once the other ray is at alpha D:
     work D + alpha D, ratio 1 + alpha (approached from below by the
     breakpoint bracketing) *)
  List.iter
    (fun alpha ->
      let out = WS.worst_ratio (WS.kmsy ~alpha ~m:2 ~k:2 ()) ~n:200. () in
      checkf6 (Printf.sprintf "alpha=%g" alpha) (1. +. alpha) out.WS.ratio)
    [ 2.; 3. ]

let test_ws_budget_exhaustion () =
  (* a target not passed within ratio_cap * |x| of work escapes: a cap
     below the single-robot ratio (about 9 on the line) leaves one *)
  let sched = WS.kmsy ~m:2 ~k:1 () in
  check_bool "budget respected" true
    (Float.equal infinity (WS.worst_ratio ~ratio_cap:2. sched ~n:50. ()).WS.ratio)

let test_ws_more_robots_help () =
  (* distance ratio improves with k (fewer return trips) at a common
     moderately-good base *)
  let ratio k =
    let sched = WS.kmsy ~alpha:2. ~m:4 ~k () in
    (WS.worst_ratio sched ~n:200. ()).WS.ratio
  in
  let r1 = ratio 1 and r2 = ratio 2 and r3 = ratio 3 in
  check_bool "k=2 beats k=1" true (r2 < r1);
  check_bool "k=3 beats k=2" true (r3 < r2)

let test_ws_sequential_beats_parallel_charged () =
  (* the Section 3 remark: in the distance measure, the time-optimal
     parallel strategy is wasteful *)
  let m = 4 and k = 3 in
  let best_seq = ref infinity in
  for i = 0 to 15 do
    let alpha = 1.3 +. (0.2 *. float_of_int i) in
    let sched = WS.kmsy ~alpha ~m ~k () in
    let r = (WS.worst_ratio sched ~n:200. ()).WS.ratio in
    if r < !best_seq then best_seq := r
  done;
  let p = P.make ~m ~k ~f:0 in
  let trs = Search_strategy.Group.trajectories (Search_strategy.Group.optimal p) in
  let parallel = WS.parallel_charged trs ~f:0 ~n:200. in
  check_bool "sequential schedule wins on distance" true (!best_seq < parallel)

let test_ws_validation () =
  List.iter
    (fun (name, build) ->
      match build () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" name)
    [
      ("0 robots", fun () -> WS.kmsy ~m:2 ~k:0 ());
      ("more robots than rays", fun () -> WS.kmsy ~m:2 ~k:3 ());
      ("alpha <= 1", fun () -> WS.kmsy ~alpha:1. ~m:2 ~k:1 ());
    ]

(* ------------------------------------------------------------------ *)
(* Turn_cost (Demaine-Fekete-Gal) *)

let cow () = Tr.compile (Search_strategy.Cyclic.doubling_cow ())

(* an explicit doubling zigzag with turns 1, 2, 4 (no warm-up turns, so
   reversal times are 1, 4, 10) *)
let plain_zigzag () =
  Tr.compile
    (Search_strategy.Line_zigzag.itinerary
       (Search_strategy.Turning.geometric ~scale:0.5 ~alpha:2. ()))

let test_tc_reversal_count () =
  (* turns 1, 2, 4, ... from the origin: a target just past distance 1
     on the first ray is found at time 1 + 3 + 3 = 7, after the two
     reversals at times 1 and 4; at c = 10 that is the worst case (the
     bracketing probes distance 1 + 1e-7, hence the tolerance) *)
  let r = TC.worst_ratio [| plain_zigzag () |] ~f:0 ~turn_cost:10. ~n:100. () in
  Alcotest.(check (float 1e-5)) "7 + 2 c" 27. r

let test_tc_zero_cost_matches_engine () =
  let tr = [| cow () |] in
  let plain = (Search_sim.Adversary.worst_case tr ~f:0 ~n:100. ()).Search_sim.Adversary.ratio in
  let charged = TC.worst_ratio tr ~f:0 ~turn_cost:0. ~n:100. () in
  checkf6 "c=0 is the plain model" plain charged

let test_tc_cost_monotone_in_c () =
  let tr = [| cow () |] in
  let r c = TC.worst_ratio tr ~f:0 ~turn_cost:c ~n:100. () in
  let r0 = r 0. and r1 = r 1. and r5 = r 5. in
  check_bool "increasing in c" true (r0 < r1 && r1 < r5);
  check_bool "c=0 is the classic 9" true (Float.abs (r0 -. 9.) < 0.01)

let test_tc_bases_converge_at_high_c () =
  (* in the sup-over-[1,n] metric the worst case at large c sits just
     past a turning point near distance 1 and charges one reversal for
     every base, so the doubling advantage shrinks to nothing: at c = 0
     doubling strictly wins, by c = 10 base 3 has caught up *)
  let zig alpha =
    [| Tr.compile (Search_strategy.Line_zigzag.itinerary
                     (Search_strategy.Turning.geometric ~alpha ())) |]
  in
  let at c alpha = TC.worst_ratio (zig alpha) ~f:0 ~turn_cost:c ~n:100. () in
  check_bool "at c=0 doubling wins" true (at 0. 2. < at 0. 3.);
  let gap0 = at 0. 3. -. at 0. 2. in
  let gap10 = at 10. 3. -. at 10. 2. in
  check_bool "gap shrinks" true (gap10 < gap0);
  check_bool "caught up at c=10" true (gap10 < 0.01)

let test_tc_origin_charging () =
  let tr = [| cow () |] in
  (* with origin charging, ray changes through 0 also count *)
  let ratio charge_origin =
    TC.worst_ratio ~charge_origin tr ~f:0 ~turn_cost:1. ~n:100. ()
  in
  check_bool "origin charges add" true (ratio true > ratio false)

(* ------------------------------------------------------------------ *)
(* Stochastic (Bellman-Beck) *)

let test_st_distribution_validation () =
  (match St.make [] with
  | exception
      Search_numerics.Search_error.Error
        (Search_numerics.Search_error.Invalid_input _) ->
      ()
  | _ -> Alcotest.fail "empty support accepted");
  (match St.make [ (W.point W.line ~ray:0 ~dist:2., 0.4) ] with
  | exception
      Search_numerics.Search_error.Error
        (Search_numerics.Search_error.Invalid_input _) ->
      ()
  | _ -> Alcotest.fail "non-normalised accepted");
  let d = St.uniform_line ~cells:10 ~lo:1. ~hi:10. in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0. d.St.support in
  checkf "sums to one" 1. total

let test_st_expected_distance () =
  let d = St.uniform_line ~cells:100 ~lo:1. ~hi:11. in
  (* mean of uniform on [1, 11] is 6 *)
  check_bool "E|d| near 6" true (Float.abs (St.expected_distance d -. 6.) < 0.01)

let test_st_point_mass_matches_engine () =
  let tr = [| cow () |] in
  let p = W.point W.line ~ray:0 ~dist:7.3 in
  let d = St.point_mass p in
  let e = St.expected_detection_time tr ~f:0 d ~horizon:1e3 in
  match Search_sim.Engine.detection_time_worst tr ~f:0 ~target:p ~horizon:1e3 with
  | Some t -> checkf "point mass = detection time" t e
  | None -> Alcotest.fail "expected detection"

let test_st_beck_quotient_below_worst_case () =
  (* expectation over a spread distribution beats the worst case *)
  let tr = [| cow () |] in
  let d = St.uniform_line ~cells:60 ~lo:1. ~hi:100. in
  let q = St.beck_quotient tr ~f:0 d ~horizon:1e4 in
  check_bool "below 9" true (q < 9.);
  check_bool "above 1" true (q > 1.)

let test_st_sided_sweep_beats_doubling_on_known_dist () =
  let tr = [| cow () |] in
  let d = St.uniform_line ~cells:60 ~lo:1. ~hi:100. in
  let doubling_q = St.beck_quotient tr ~f:0 d ~horizon:1e4 in
  let sided = St.best_sided_sweep d in
  check_bool "knowing the distribution helps" true (sided < doubling_q)

let test_st_undetectable_is_infinite () =
  let tr = [| cow () |] in
  let d = St.point_mass (W.point W.line ~ray:0 ~dist:5.) in
  check_bool "tiny horizon -> infinity" true
    (Float.equal (St.expected_detection_time tr ~f:0 d ~horizon:2.) infinity)

(* ------------------------------------------------------------------ *)
(* Induction (Section 3.1, Case 2) *)

let assignment31 () =
  let p = P.line ~k:3 ~f:1 in
  let lam0 = F.of_params p in
  let mu = (lam0 -. 1.) /. 2. in
  let turns = Search_covering.Orc.of_mray_group (Search_strategy.Mray_exponential.make p) in
  match A.build A.Orc_setting ~mu ~demand:4 ~turns ~up_to:300. () with
  | A.Complete ivs -> (ivs, mu, turns)
  | A.Stuck _ -> Alcotest.fail "assignment stuck"

let test_ind_exponential_is_case1 () =
  let ivs, mu, _ = assignment31 () in
  let c_obs = Ind.observed_c ivs in
  check_bool "bounded jumps" true (c_obs < 20.);
  match Ind.classify ivs ~k:3 ~demand:4 ~mu ~c:(c_obs +. 1.) with
  | Ind.Case1 { c } -> check_bool "case 1 with observed c" true (c <= c_obs +. 1e-9)
  | Ind.Case2 _ -> Alcotest.fail "expected Case 1"

let test_ind_detects_jumps () =
  let ivs =
    [
      { A.robot = 0; left = 1.; turn = 2. };
      { A.robot = 1; left = 1.; turn = 3. };
      { A.robot = 0; left = 2.; turn = 4. };
      { A.robot = 0; left = 200.; turn = 400. };
    ]
  in
  (match Ind.jumps ivs ~c:50. with
  | [ j ] ->
      check_int "jumping robot" 0 j.Ind.robot;
      checkf "from" 2. j.Ind.from_left;
      checkf "to" 200. j.Ind.to_left
  | l -> Alcotest.failf "expected one jump, got %d" (List.length l));
  check_bool "observed c" true (Float.equal (Ind.observed_c ivs) 100.)

let test_ind_case2_reduction_shape () =
  let ivs =
    [
      { A.robot = 0; left = 1.; turn = 2. };
      { A.robot = 1; left = 1.; turn = 3. };
      { A.robot = 0; left = 2.; turn = 4. };
      { A.robot = 0; left = 200.; turn = 400. };
    ]
  in
  match Ind.classify ivs ~k:3 ~demand:4 ~mu:2. ~c:50. with
  | Ind.Case2 { window = lo, hi; reduced_k; reduced_demand; rescale; _ } ->
      checkf "window lo = mu t'" 4. lo;
      checkf "window hi = c t'" 100. hi;
      check_int "k - 1" 2 reduced_k;
      check_int "q - 1" 3 reduced_demand;
      checkf "rescale to 1" 4. rescale
  | Ind.Case1 _ -> Alcotest.fail "expected Case 2"

let test_ind_verify_reduction_on_real_strategy () =
  (* force a small c so some consecutive pair counts as a jump, then the
     other robots must (q-1)-fold cover the jump window — which they do,
     since the full strategy q-fold covers everything *)
  let ivs, mu, turns = assignment31 () in
  let c_obs = Ind.observed_c ivs in
  match Ind.jumps ivs ~c:(c_obs *. 0.99) with
  | [] -> Alcotest.fail "expected at least the maximal jump"
  | jump :: _ -> (
      match Ind.verify_reduction ~turns ~jump ~mu ~demand:4 with
      | Sweep.Covered -> ()
      | Sweep.Gap { at; _ } -> Alcotest.failf "reduced coverage gap at %g" at)

let test_ind_epsilon' () =
  check_bool "positive induction gap" true (Ind.epsilon' ~q:6 ~k:4 > 0.)

(* ------------------------------------------------------------------ *)
(* properties *)

let prop_krt_expected_between_1_and_9 =
  QCheck2.Test.make ~count:40 ~name:"randomized expected ratio in (1, 9)"
    QCheck2.Gen.(pair (float_range 2. 6.) (float_range 2. 200.))
    (fun (beta, x) ->
      let r = R.expected_ratio_exact ~beta ~x ~grid:200 in
      1. < r && r < 12.)

let prop_tc_ratio_ge_plain =
  QCheck2.Test.make ~count:30 ~name:"turn cost never decreases the ratio"
    QCheck2.Gen.(pair (float_range 1.5 3.5) (float_range 0. 4.))
    (fun (alpha, c) ->
      let tr =
        [| Tr.compile (Search_strategy.Line_zigzag.itinerary
                         (Search_strategy.Turning.geometric ~alpha ())) |]
      in
      let plain = TC.worst_ratio tr ~f:0 ~turn_cost:0. ~n:50. () in
      let charged = TC.worst_ratio tr ~f:0 ~turn_cost:c ~n:50. () in
      charged >= plain -. 1e-9)

let prop_st_quotient_bounded_by_worst_case =
  (* the Beck quotient of any distribution never exceeds the worst-case
     competitive ratio over its support range *)
  QCheck2.Test.make ~count:20 ~name:"E T / E d <= sup ratio"
    QCheck2.Gen.(pair (float_range 2. 50.) (int_range 3 30))
    (fun (hi, cells) ->
      let tr = [| cow () |] in
      let d = St.uniform_line ~cells ~lo:1. ~hi in
      let q = St.beck_quotient tr ~f:0 d ~horizon:1e4 in
      q <= 9.0 +. 1e-6)

let properties =
  Fixture.properties
    [
      prop_krt_expected_between_1_and_9;
      prop_tc_ratio_ge_plain;
      prop_st_quotient_bounded_by_worst_case;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "extensions"
    [
      ( "prng",
        [
          tc "deterministic" `Quick test_prng_deterministic;
          tc "float range" `Quick test_prng_float_range;
          tc "uniformity" `Quick test_prng_uniformity;
          tc "int bound" `Quick test_prng_int_bound;
          tc "int distribution" `Quick test_prng_int_distribution;
          tc "int large bounds reachable" `Quick
            test_prng_int_large_bound_reachable;
          tc "split" `Quick test_prng_split_independent;
          tc "split stream independence" `Quick
            test_prng_split_stream_independence;
        ] );
      ( "csv",
        [
          tc "escape" `Quick test_csv_escape;
          tc "write roundtrip" `Quick test_csv_write_roundtrip;
          tc "arity" `Quick test_csv_arity;
        ] );
      ( "randomized",
        [
          tc "optimal beta" `Quick test_krt_optimal_beta;
          tc "formula at optimum" `Quick test_krt_formula_at_optimum;
          tc "beats deterministic" `Quick test_krt_beats_deterministic;
          tc "concrete detection times" `Quick test_krt_detection_time_concrete;
          tc "quadrature matches formula" `Quick test_krt_quadrature_matches_formula;
          tc "monte carlo agrees" `Quick test_krt_monte_carlo_agrees;
        ] );
      ( "work_schedule",
        [
          tc "single-robot anchor" `Quick test_ws_single_robot_anchor;
          tc "concrete work" `Quick test_ws_concrete_work;
          tc "budget exhaustion" `Quick test_ws_budget_exhaustion;
          tc "more robots help" `Quick test_ws_more_robots_help;
          tc "sequential beats parallel-charged" `Quick
            test_ws_sequential_beats_parallel_charged;
          tc "validation" `Quick test_ws_validation;
        ] );
      ( "turn_cost",
        [
          tc "reversal count" `Quick test_tc_reversal_count;
          tc "c=0 matches engine" `Quick test_tc_zero_cost_matches_engine;
          tc "monotone in c" `Quick test_tc_cost_monotone_in_c;
          tc "bases converge at high c" `Quick test_tc_bases_converge_at_high_c;
          tc "origin charging" `Quick test_tc_origin_charging;
        ] );
      ( "stochastic",
        [
          tc "validation" `Quick test_st_distribution_validation;
          tc "expected distance" `Quick test_st_expected_distance;
          tc "point mass" `Quick test_st_point_mass_matches_engine;
          tc "beck quotient" `Quick test_st_beck_quotient_below_worst_case;
          tc "sided sweep" `Quick test_st_sided_sweep_beats_doubling_on_known_dist;
          tc "undetectable" `Quick test_st_undetectable_is_infinite;
        ] );
      ( "induction",
        [
          tc "exponential is Case 1" `Quick test_ind_exponential_is_case1;
          tc "detects jumps" `Quick test_ind_detects_jumps;
          tc "Case 2 reduction shape" `Quick test_ind_case2_reduction_shape;
          tc "reduction verified on real strategy" `Quick
            test_ind_verify_reduction_on_real_strategy;
          tc "epsilon'" `Quick test_ind_epsilon';
        ] );
      ("properties", properties);
    ]
