(* Tests for the strategy layer: turning sequences, line zigzag semantics
   (the closed formula of Section 2), ORC round semantics, the
   normalisation transformers, the m-ray exponential strategy of the
   appendix, cyclic strategies, baselines and group dispatch. *)

module Turning = Search_strategy.Turning
module LZ = Search_strategy.Line_zigzag
module OR = Search_strategy.Orc_round
module Norm = Search_strategy.Normalize
module Mray = Search_strategy.Mray_exponential
module Cyclic = Search_strategy.Cyclic
module Baseline = Search_strategy.Baseline
module Group = Search_strategy.Group
module P = Search_bounds.Params
module F = Search_bounds.Formulas
module W = Search_sim.World
module Tr = Search_sim.Trajectory
module It = Search_sim.Itinerary
module I = Search_numerics.Interval1

let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let doubling = Turning.geometric ~scale:0.5 ~alpha:2. ()
(* t_i = 0.5 * 2^i = 1, 2, 4, ... *)

(* ------------------------------------------------------------------ *)
(* Turning *)

let test_turning_geometric () =
  checkf "t1" 1. (Turning.get doubling 1);
  checkf "t3" 4. (Turning.get doubling 3);
  checkf "partial sum" 7. (Turning.partial_sum doubling 3);
  checkf "empty sum" 0. (Turning.partial_sum doubling 0)

let test_turning_of_list_then () =
  let t = Turning.of_list_then [ 5.; 6. ] (fun i -> float_of_int (10 * i)) in
  checkf "prefix" 5. (Turning.get t 1);
  checkf "tail" 30. (Turning.get t 3)

let test_turning_nondecreasing () =
  check_bool "geometric is nondecreasing" true
    (Turning.nondecreasing_prefix doubling ~n:10);
  let bad = Turning.of_list_then [ 2.; 1. ] (fun i -> float_of_int i) in
  check_bool "decreasing detected" false (Turning.nondecreasing_prefix bad ~n:2)

let test_turning_negative_rejected () =
  let t = Turning.of_fun (fun i -> if i = 2 then -1. else 1.) in
  ignore (Turning.get t 1);
  match Turning.get t 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative turning point accepted"

(* ------------------------------------------------------------------ *)
(* Compiled (flat-array) view: must replay the lazy view bit for bit *)

let check_bits name a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: lazy %h <> compiled %h" name a b

let test_compiled_basic () =
  let c = Turning.compile ~hint:4 doubling in
  checkf "get" 4. (Turning.compiled_get c 3);
  checkf "partial sum" 7. (Turning.compiled_partial_sum c 3);
  checkf "empty sum" 0. (Turning.compiled_partial_sum c 0)

let test_compiled_negative_rejected () =
  let t = Turning.of_fun (fun i -> if i = 2 then -1. else 1.) in
  let c = Turning.compile t in
  ignore (Turning.compiled_get c 1);
  match Turning.compiled_get c 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative turning point accepted by compiled view"

(* Property: over fuzz-grade generated strategies (noisy, possibly
   non-monotone), every prefix value and Kahan partial sum of the
   compiled view equals the lazy view bitwise — under interleaved
   access orders, since the compiled view grows on demand. *)
let test_compiled_matches_lazy_generated () =
  let depth = 96 in
  List.iter
    (fun case ->
      Array.iter
        (fun t ->
          let c = Turning.compile t in
          (* descending first touch: one ensure-growth, then cached *)
          for i = depth downto 1 do
            check_bits
              (Printf.sprintf "get %d" i)
              (Turning.get t i)
              (Turning.compiled_get c i)
          done;
          for i = 0 to depth do
            check_bits
              (Printf.sprintf "partial_sum %d" i)
              (Turning.partial_sum t i)
              (Turning.compiled_partial_sum c i)
          done;
          (* a second, stride-interleaved pass out of the cache *)
          for i = 1 to depth / 3 do
            let j = ((i * 29) mod depth) + 1 in
            check_bits
              (Printf.sprintf "interleaved %d" j)
              (Turning.partial_sum t j)
              (Turning.compiled_partial_sum c j)
          done)
        (Search_check.Gen.turning_group case))
    (Search_check.Gen.cases ~seed:20180723 ~count:20)

(* The prefix walk reads only the materialised prefix: the 0-length
   walk is 0. on a fresh (empty) view, walking past the prefix raises
   instead of growing, and a warmed walk equals the explicit sum of
   partial sums bit for bit. *)
let test_compiled_prefix_walk () =
  let c = Turning.compile ~hint:4 doubling in
  checkf "empty prefix" 0. (Turning.compiled_prefix_walk c 0);
  (match Turning.compiled_prefix_walk c 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "walk past the materialised prefix accepted");
  (match Turning.compiled_prefix_walk c (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative depth accepted");
  ignore (Turning.compiled_partial_sum c 5);
  let expected = ref 0. in
  for i = 1 to 5 do
    expected := !expected +. Turning.compiled_partial_sum c i
  done;
  check_bits "warmed walk" !expected (Turning.compiled_prefix_walk c 5)

(* ------------------------------------------------------------------ *)
(* Line_zigzag: the Section 2 closed formula *)

let test_lz_pair_visit_matches_formula () =
  (* for nondecreasing sequences and t_{i-1} < x <= t_i the motion-level
     time equals 2(t1+...+ti) + x *)
  List.iter
    (fun (x, i) ->
      match LZ.pair_visit_time doubling ~x with
      | Some t ->
          checkf
            (Printf.sprintf "x=%g" x)
            (LZ.pair_visit_time_formula doubling ~x ~i)
            t
      | None -> Alcotest.fail "expected pair visit")
    [ (0.5, 1); (1., 1); (1.5, 2); (2., 2); (3.7, 3); (4., 3); (7.9, 4) ]

let test_lz_cover_threshold () =
  (* eq (3): t''_i = max(sum_i/mu, t_{i-1}) *)
  let mu = 4. in
  checkf "t''_1 = t1+.../mu" (1. /. 4.) (LZ.cover_threshold doubling ~mu ~i:1);
  (* i = 3: sum = 7, 7/4 = 1.75 < t2 = 2 -> threshold is t2 *)
  checkf "t''_3 = t_2" 2. (LZ.cover_threshold doubling ~mu ~i:3);
  (* smaller mu: 7/2 = 3.5 > 2 *)
  checkf "t''_3 with mu=2" 3.5 (LZ.cover_threshold doubling ~mu:2. ~i:3)

let test_lz_fruitful () =
  (* with mu = 4 (lambda = 9) every doubling turn is fruitful *)
  for i = 1 to 8 do
    check_bool (Printf.sprintf "turn %d fruitful" i) true
      (LZ.fruitful doubling ~mu:4. ~i)
  done;
  (* with mu = 1.2 (lambda = 3.4) thresholds overtake the turns:
     (2^i - 1)/1.2 > 2^(i-1) for i >= 2 *)
  check_bool "not fruitful at mu=1.2" false (LZ.fruitful doubling ~mu:1.2 ~i:3)

let test_lz_cover_intervals_tile () =
  (* at mu = 4 the doubling cover intervals [t''_i, t_i] tile [t1, inf) *)
  let ivs = LZ.cover_intervals doubling ~mu:4. ~up_to:10 in
  check_int "all ten fruitful" 10 (List.length ivs);
  let rec tiles = function
    | (_, (a : I.t)) :: ((_, (b : I.t)) :: _ as rest) ->
        a.I.hi >= b.I.lo && tiles rest
    | _ -> true
  in
  check_bool "consecutive intervals touch" true (tiles ivs)

let test_lz_lambda_covers () =
  check_bool "doubling 9-covers 3" true (LZ.lambda_covers doubling ~lambda:9. ~x:3.);
  check_bool "doubling cannot 5-cover 3" false
    (LZ.lambda_covers doubling ~lambda:5. ~x:3.)

let test_lz_itinerary_roundtrip () =
  let tr = Tr.compile (LZ.itinerary doubling) in
  (* motion-level pair-visit of x=1.5 equals trajectory-level computation *)
  let x = 1.5 in
  let tp = Tr.first_visit tr ~target:(W.point W.line ~ray:0 ~dist:x) ~horizon:1e3 in
  let tn = Tr.first_visit tr ~target:(W.point W.line ~ray:1 ~dist:x) ~horizon:1e3 in
  match (tp, tn, LZ.pair_visit_time doubling ~x) with
  | Some a, Some b, Some c -> checkf "agree" (Float.max a b) c
  | _ -> Alcotest.fail "expected visits"

(* ------------------------------------------------------------------ *)
(* Orc_round *)

let test_or_visit_time () =
  (* round i reaches x at 2(t1+...+t_{i-1}) + x *)
  (match OR.visit_time doubling ~i:3 ~x:3. with
  | Some t -> checkf "round 3 at x=3" ((2. *. 3.) +. 3.) t
  | None -> Alcotest.fail "expected reach");
  check_bool "too deep for the round" true (OR.visit_time doubling ~i:2 ~x:3. = None)

let test_or_threshold_excludes_current () =
  (* ORC threshold sums rounds strictly before i *)
  checkf "t''_1 = 0" 0. (OR.cover_threshold doubling ~mu:4. ~i:1);
  checkf "t''_3 = (1+2)/4" 0.75 (OR.cover_threshold doubling ~mu:4. ~i:3)

let test_or_round_cover () =
  (match OR.round_cover doubling ~mu:4. ~i:3 with
  | Some iv ->
      checkf "lo" 0.75 iv.I.lo;
      checkf "hi" 4. iv.I.hi
  | None -> Alcotest.fail "round 3 should cover");
  (* mu tiny: thresholds blow past turn depths *)
  check_bool "unfruitful round" true (OR.round_cover doubling ~mu:0.3 ~i:5 = None)

let test_or_cover_intervals_within () =
  let ivs = OR.cover_intervals_within doubling ~mu:4. ~within:(1., 100.) () in
  check_bool "several rounds intersect" true (List.length ivs >= 6);
  List.iter
    (fun (_, (iv : I.t)) ->
      check_bool "intersects window" true (iv.I.hi >= 1. && iv.I.lo <= 100.))
    ivs

let test_or_itinerary () =
  let w = W.rays 3 in
  let it = OR.itinerary ~world:w ~ray:2 doubling in
  let tr = Tr.compile it in
  (* round 2 reaches depth 1.5 on ray 2 at 2*1 + 1.5 = 3.5 *)
  match Tr.first_visit tr ~target:(W.point w ~ray:2 ~dist:1.5) ~horizon:100. with
  | Some t -> checkf "round semantics" 3.5 t
  | None -> Alcotest.fail "expected visit"

(* ------------------------------------------------------------------ *)
(* Normalize *)

let test_normalize_orc_keeps_fruitful () =
  (* doubling at mu = 4 is all fruitful: normalisation is the identity *)
  let n = Norm.fruitful_only_orc ~mu:4. doubling in
  for i = 1 to 6 do
    checkf (Printf.sprintf "kept t%d" i) (Turning.get doubling i)
      (Turning.get n i)
  done

let test_normalize_orc_drops_unfruitful () =
  (* a sequence with a useless tiny round inserted: (1, 0.1, 2, 4, ...) —
     round 2 has threshold 1/4 = 0.25 > 0.1, hence unfruitful *)
  let t =
    Turning.of_list_then [ 1.; 0.1 ] (fun i -> 2. ** float_of_int (i - 2))
  in
  let n = Norm.fruitful_only_orc ~mu:4. t in
  checkf "keeps 1" 1. (Turning.get n 1);
  checkf "skips 0.1, keeps 2" 2. (Turning.get n 2)

let test_normalize_line_enforces_monotone () =
  (* repeated turning points: the duplicate is dropped in the line setting *)
  let t =
    Turning.of_list_then [ 1.; 1.; 2. ] (fun i -> 2. ** float_of_int (i - 2))
  in
  let n = Norm.fruitful_only_line ~mu:4. t in
  checkf "keeps 1" 1. (Turning.get n 1);
  checkf "drops duplicate, keeps 2" 2. (Turning.get n 2)

let test_normalize_diverges_on_hopeless () =
  (* constant turning points can never be fruitful once the sum grows *)
  let t = Turning.of_fun (fun _ -> 1.) in
  let n = Norm.fruitful_only_orc ~scan_limit:100 ~mu:2. t in
  match Turning.get n 10 with
  | exception
      Search_numerics.Search_error.Error
        (Search_numerics.Search_error.Non_convergence _) ->
      ()
  | _ -> Alcotest.fail "expected divergence"

let test_normalize_never_shrinks_cover () =
  (* coverage of the normalised strategy contains the original's:
     check pointwise on a grid *)
  let t =
    Turning.of_list_then [ 1.; 0.3; 1.8; 0.5 ]
      (fun i -> 1.8 *. (2. ** float_of_int (i - 4)))
  in
  let mu = 4. in
  let n = Norm.fruitful_only_orc ~mu t in
  let covered turns x =
    OR.cover_intervals_within turns ~mu ~within:(x, x) ()
    |> List.exists (fun (_, iv) -> I.mem x iv)
  in
  for i = 10 to 60 do
    let x = float_of_int i /. 10. in
    if covered t x then
      check_bool (Printf.sprintf "x=%g still covered" x) true (covered n x)
  done

(* ------------------------------------------------------------------ *)
(* Mray_exponential *)

let line31 () = Mray.make (P.line ~k:3 ~f:1)

let test_mray_defaults () =
  let s = line31 () in
  checkf6 "default alpha is alpha*" (F.alpha_star ~q:4 ~k:3) (Mray.alpha s);
  checkf6 "predicted ratio is lambda0" (F.lambda0 ~q:4 ~k:3)
    (Mray.predicted_ratio s)

let test_mray_rejects_trivial () =
  (match Mray.make (P.line ~k:4 ~f:1) with
  | exception
      Search_numerics.Search_error.Error
        (Search_numerics.Search_error.Regime_violation
           { m = 2; k = 4; f = 1; _ }) ->
      ()
  | _ -> Alcotest.fail "ratio-one instance accepted");
  match Mray.make (P.line ~k:2 ~f:2) with
  | exception
      Search_numerics.Search_error.Error
        (Search_numerics.Search_error.Regime_violation _) ->
      ()
  | _ -> Alcotest.fail "unsolvable instance accepted"

let test_mray_ray_cycle () =
  let s = line31 () in
  check_int "pass 1 on ray 0" 0 (Mray.ray_of_pass s ~l:1);
  check_int "pass 2 on ray 1" 1 (Mray.ray_of_pass s ~l:2);
  check_int "pass 3 on ray 0" 0 (Mray.ray_of_pass s ~l:3);
  check_int "negative pass" 1 (Mray.ray_of_pass s ~l:0);
  check_int "deep negative" 0 (Mray.ray_of_pass s ~l:(-1))

let test_mray_depths_geometric () =
  let s = line31 () in
  let a = Mray.alpha s in
  let d1 = Mray.depth_of_pass s ~robot:0 ~l:5 in
  let d2 = Mray.depth_of_pass s ~robot:0 ~l:6 in
  checkf6 "ratio alpha^k" (a ** 3.) (d2 /. d1);
  (* robots are staggered by alpha^m *)
  let e = Mray.depth_of_pass s ~robot:1 ~l:5 in
  checkf6 "robot stagger alpha^m" (a ** 2.) (e /. d1)

let test_mray_itineraries_count () =
  let s = line31 () in
  check_int "k itineraries" 3 (Array.length (Mray.itineraries s))

let test_mray_assigned_intervals_cover () =
  (* the assigned intervals of all robots cover every distance in [1, 50]
     exactly f+1 = 2 times on each ray *)
  let s = line31 () in
  let module Sweep = Search_numerics.Sweep in
  for ray = 0 to 1 do
    let ivs =
      List.concat_map
        (fun robot ->
          Mray.assigned_intervals_on_ray s ~robot ~ray ~within:(1., 50.))
        [ 0; 1; 2 ]
    in
    match Sweep.check ~demand:2 ~within:(1., 50.) ivs with
    | Sweep.Covered -> ()
    | Sweep.Gap { at; multiplicity; _ } ->
        Alcotest.failf "ray %d: gap at %g (mult %d)" ray at multiplicity
  done

let test_mray_assigned_intervals_exactly_fplus1 () =
  (* not just >= f+1: the assignment is exactly (f+1)-fold in the interior *)
  let s = line31 () in
  let module Sweep = Search_numerics.Sweep in
  let ivs =
    List.concat_map
      (fun robot ->
        Mray.assigned_intervals_on_ray s ~robot ~ray:0 ~within:(1., 50.))
      [ 0; 1; 2 ]
  in
  List.iter
    (fun x ->
      check_int (Printf.sprintf "multiplicity at %g" x) 2
        (Sweep.multiplicity_at x ivs))
    [ 1.7; 3.1; 10.4; 33.3 ]

let test_mray_simulated_ratio_matches () =
  (* m = 3, k = 2, f = 0 simulated on a short horizon *)
  let s = Mray.make (P.make ~m:3 ~k:2 ~f:0) in
  let trs = Array.map Tr.compile (Mray.itineraries s) in
  let out = Search_sim.Adversary.worst_case trs ~f:0 ~n:300. () in
  check_bool "within bound" true
    (out.Search_sim.Adversary.ratio <= Mray.predicted_ratio s +. 1e-6);
  check_bool "close to bound" true
    (out.Search_sim.Adversary.ratio >= Mray.predicted_ratio s -. 0.01)


let test_mray_coverage_theorem_exact () =
  (* the integer residue check: every exponent class is covered exactly
     f+1 times, for all distances, no horizon involved *)
  List.iter
    (fun (m, k, f) ->
      let s = Mray.make (P.make ~m ~k ~f) in
      check_bool
        (Printf.sprintf "theorem (m=%d,k=%d,f=%d)" m k f)
        true
        (Mray.coverage_theorem_holds s);
      Array.iter
        (fun mult -> check_int "exactly f+1" (f + 1) mult)
        (Mray.coverage_multiplicity_by_residue s))
    [ (2, 1, 0); (2, 3, 1); (2, 5, 2); (3, 2, 1); (4, 3, 1); (5, 4, 0) ]

let test_mray_custom_alpha_worse () =
  let p = P.line ~k:3 ~f:1 in
  let s = Mray.make ~alpha:2.2 p in
  check_bool "suboptimal base predicted worse" true
    (Mray.predicted_ratio s > F.lambda0 ~q:4 ~k:3)

(* ------------------------------------------------------------------ *)
(* Cyclic / Baseline *)

let test_cyclic_requires_k_lt_m () =
  match Cyclic.itineraries ~m:3 ~k:3 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k = m accepted"

let test_cyclic_single_robot_ratio () =
  (* classic m = 3: ratio 1 + 2*27/4 = 14.5 *)
  let tr = [| Tr.compile (Cyclic.single_robot ~m:3 ()) |] in
  let out = Search_sim.Adversary.worst_case tr ~f:0 ~n:500. () in
  check_bool "close to 14.5" true
    (Float.abs (out.Search_sim.Adversary.ratio -. 14.5) < 0.05)

let test_cyclic_doubling_cow () =
  let tr = [| Tr.compile (Cyclic.doubling_cow ()) |] in
  let out = Search_sim.Adversary.worst_case tr ~f:0 ~n:500. () in
  check_bool "close to 9" true (Float.abs (out.Search_sim.Adversary.ratio -. 9.) < 0.01)

let test_baseline_partition () =
  let p = P.make ~m:3 ~k:6 ~f:1 in
  let its = Baseline.partition p in
  check_int "six robots" 6 (Array.length its);
  let trs = Array.map Tr.compile its in
  let out = Search_sim.Adversary.worst_case trs ~f:1 ~n:200. () in
  checkf "ratio one" 1. out.Search_sim.Adversary.ratio

let test_baseline_partition_rejects_searching () =
  match Baseline.partition (P.line ~k:3 ~f:1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "partition in searching regime accepted"

let test_baseline_replicated_tolerates_faults () =
  (* k identical robots visit simultaneously: any f < k tolerated at 9 *)
  let trs = Array.map Tr.compile (Baseline.replicated_doubling ~k:3) in
  let out = Search_sim.Adversary.worst_case trs ~f:2 ~n:500. () in
  check_bool "ratio 9 despite f=2" true
    (Float.abs (out.Search_sim.Adversary.ratio -. 9.) < 0.01)

(* ------------------------------------------------------------------ *)
(* Group *)

let test_group_optimal_dispatch () =
  let g = Group.optimal (P.line ~k:4 ~f:1) in
  checkf "ratio-one regime" 1. g.Group.predicted_ratio;
  let g = Group.optimal (P.line ~k:3 ~f:1) in
  checkf6 "searching regime" (F.a_line ~k:3 ~f:1) g.Group.predicted_ratio;
  match Group.optimal (P.line ~k:2 ~f:2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsolvable accepted"

(* ------------------------------------------------------------------ *)
(* properties *)

let gen_kf =
  (* line searching-regime pair: k robots, f faults, 0 < s <= k *)
  QCheck2.Gen.(
    let* f = int_range 0 3 in
    let* k = int_range (f + 1) ((2 * (f + 1)) - 1) in
    return (k, f))

let prop_mray_line_simulated_at_most_bound =
  QCheck2.Test.make ~count:12 ~name:"line exponential strategy meets its bound"
    gen_kf (fun (k, f) ->
      let s = Mray.make (P.line ~k ~f) in
      let trs = Array.map Tr.compile (Mray.itineraries s) in
      let out = Search_sim.Adversary.worst_case trs ~f ~n:100. () in
      out.Search_sim.Adversary.ratio <= Mray.predicted_ratio s +. 1e-6)

let prop_formula_vs_motion =
  (* the Section 2 closed formula vs motion-level pair visits on random
     geometric strategies *)
  QCheck2.Gen.(
    let* alpha = float_range 1.5 3. in
    let* x = float_range 0.6 20. in
    return (alpha, x))
  |> fun gen ->
  QCheck2.Test.make ~count:200 ~name:"pair-visit formula matches motion" gen
    (fun (alpha, x) ->
      let t = Turning.geometric ~alpha () in
      (* find i with t_{i-1} < x <= t_i *)
      let rec find i = if Turning.get t i >= x then i else find (i + 1) in
      let i = find 1 in
      match LZ.pair_visit_time t ~x with
      | Some got ->
          let want = LZ.pair_visit_time_formula t ~x ~i in
          Float.abs (got -. want) <= 1e-9 *. want
      | None -> false)

let prop_orc_cover_iff_interval =
  (* round-cover intervals are sound and complete w.r.t. visit times *)
  QCheck2.Gen.(
    let* alpha = float_range 1.6 2.8 in
    let* mu = float_range 1.5 6. in
    let* x = float_range 1. 30. in
    return (alpha, mu, x))
  |> fun gen ->
  QCheck2.Test.make ~count:300 ~name:"ORC interval membership = timely visit"
    gen (fun (alpha, mu, x) ->
      let t = Turning.geometric ~alpha () in
      let lambda = (2. *. mu) +. 1. in
      let in_some_interval =
        OR.cover_intervals t ~mu ~up_to:40
        |> List.exists (fun (_, iv) -> I.mem x iv)
      in
      let timely_visit =
        let rec probe i =
          if i > 40 then false
          else
            match OR.visit_time t ~i ~x with
            | Some time when time <= lambda *. x -> true
            | Some _ | None -> probe (i + 1)
        in
        probe 1
      in
      in_some_interval = timely_visit)

let properties =
  Fixture.properties
    [
      prop_mray_line_simulated_at_most_bound;
      prop_formula_vs_motion;
      prop_orc_cover_iff_interval;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "strategy"
    [
      ( "turning",
        [
          tc "geometric" `Quick test_turning_geometric;
          tc "of_list_then" `Quick test_turning_of_list_then;
          tc "nondecreasing check" `Quick test_turning_nondecreasing;
          tc "negative rejected" `Quick test_turning_negative_rejected;
          tc "compiled basic" `Quick test_compiled_basic;
          tc "compiled negative rejected" `Quick
            test_compiled_negative_rejected;
          tc "compiled = lazy (generated)" `Quick
            test_compiled_matches_lazy_generated;
          tc "compiled prefix walk" `Quick test_compiled_prefix_walk;
        ] );
      ( "line_zigzag",
        [
          tc "formula matches motion" `Quick test_lz_pair_visit_matches_formula;
          tc "cover threshold eq (3)" `Quick test_lz_cover_threshold;
          tc "fruitfulness" `Quick test_lz_fruitful;
          tc "intervals tile" `Quick test_lz_cover_intervals_tile;
          tc "lambda covers" `Quick test_lz_lambda_covers;
          tc "itinerary roundtrip" `Quick test_lz_itinerary_roundtrip;
        ] );
      ( "orc_round",
        [
          tc "visit time" `Quick test_or_visit_time;
          tc "threshold excludes current" `Quick test_or_threshold_excludes_current;
          tc "round cover" `Quick test_or_round_cover;
          tc "cover within window" `Quick test_or_cover_intervals_within;
          tc "itinerary" `Quick test_or_itinerary;
        ] );
      ( "normalize",
        [
          tc "identity on fruitful" `Quick test_normalize_orc_keeps_fruitful;
          tc "drops unfruitful" `Quick test_normalize_orc_drops_unfruitful;
          tc "line monotone repair" `Quick test_normalize_line_enforces_monotone;
          tc "diverges on hopeless" `Quick test_normalize_diverges_on_hopeless;
          tc "never shrinks cover" `Quick test_normalize_never_shrinks_cover;
        ] );
      ( "mray_exponential",
        [
          tc "defaults" `Quick test_mray_defaults;
          tc "rejects trivial" `Quick test_mray_rejects_trivial;
          tc "ray cycle" `Quick test_mray_ray_cycle;
          tc "geometric depths" `Quick test_mray_depths_geometric;
          tc "itineraries count" `Quick test_mray_itineraries_count;
          tc "assigned intervals cover" `Quick test_mray_assigned_intervals_cover;
          tc "exactly f+1 fold" `Quick test_mray_assigned_intervals_exactly_fplus1;
          tc "simulated ratio" `Quick test_mray_simulated_ratio_matches;
          tc "custom alpha worse" `Quick test_mray_custom_alpha_worse;
          tc "coverage theorem (integer)" `Quick test_mray_coverage_theorem_exact;
        ] );
      ( "cyclic",
        [
          tc "requires k < m" `Quick test_cyclic_requires_k_lt_m;
          tc "single robot m=3" `Quick test_cyclic_single_robot_ratio;
          tc "doubling cow" `Quick test_cyclic_doubling_cow;
        ] );
      ( "baseline",
        [
          tc "partition" `Quick test_baseline_partition;
          tc "partition regime check" `Quick test_baseline_partition_rejects_searching;
          tc "replication tolerates faults" `Quick
            test_baseline_replicated_tolerates_faults;
        ] );
      ( "group",
        [
          tc "dispatch" `Quick test_group_optimal_dispatch;
        ] );
      ("properties", properties);
    ]
