(* Tests for the simulation substrate: the star-metric world, itineraries,
   compiled trajectories (unit-speed invariant), fault assignments, the
   detection engine, the adversary, competitive profiles, and the
   Byzantine announcement simulator. *)

module W = Search_sim.World
module It = Search_sim.Itinerary
module Tr = Search_sim.Trajectory
module Fault = Search_sim.Fault
module Engine = Search_sim.Engine
module Adv = Search_sim.Adversary
module Comp = Search_sim.Competitive
module Byz = Search_sim.Byzantine_sim

let checkf = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* World *)

let test_world_arity () =
  check_int "line has 2 rays" 2 (W.arity W.line);
  check_int "5 rays" 5 (W.arity (W.rays 5));
  Alcotest.check_raises "0 rays" (Invalid_argument "World.rays: need m >= 1")
    (fun () -> ignore (W.rays 0))

let test_world_point_validation () =
  let w = W.rays 3 in
  ignore (W.point w ~ray:2 ~dist:1.5);
  (match W.point w ~ray:3 ~dist:1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ray out of range accepted");
  match W.point w ~ray:0 ~dist:(-1.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative distance accepted"

let test_world_travel_distance () =
  let w = W.rays 3 in
  let p a b = W.point w ~ray:a ~dist:b in
  checkf "same ray" 2. (W.travel_distance (p 0 1.) (p 0 3.));
  checkf "cross rays through origin" 4. (W.travel_distance (p 0 1.) (p 1 3.));
  checkf "from origin" 3. (W.travel_distance W.origin (p 2 3.));
  checkf "origin alias on other ray" 3. (W.travel_distance (p 1 0.) (p 2 3.))

let test_world_origin_equality () =
  let w = W.rays 3 in
  check_bool "origins on different rays equal" true
    (W.equal_point (W.point w ~ray:1 ~dist:0.) (W.point w ~ray:2 ~dist:0.));
  check_bool "distinct points differ" false
    (W.equal_point (W.point w ~ray:1 ~dist:1.) (W.point w ~ray:2 ~dist:1.))

let test_world_line_coordinate () =
  checkf "positive ray" 2.5 (W.line_coordinate (W.point W.line ~ray:0 ~dist:2.5));
  checkf "negative ray" (-2.5)
    (W.line_coordinate (W.point W.line ~ray:1 ~dist:2.5))

(* ------------------------------------------------------------------ *)
(* Itinerary *)

let test_itinerary_line_turns () =
  (* doubling zigzag: +1, -2, +4 *)
  let it = It.of_line_turns (fun i -> 2. ** float_of_int (i - 1)) in
  let wp1 = It.waypoint it 1 and wp2 = It.waypoint it 2 in
  check_int "first goes positive" 0 wp1.W.ray;
  checkf "depth 1" 1. wp1.W.dist;
  check_int "second goes negative" 1 wp2.W.ray;
  checkf "depth 2" 2. wp2.W.dist

let test_itinerary_excursions () =
  let w = W.rays 3 in
  let it = It.of_excursions ~world:w (fun i -> (i mod 3, float_of_int i)) in
  (* odd waypoints are the excursion tips, even ones the origin returns *)
  let wp1 = It.waypoint it 1 and wp2 = It.waypoint it 2 in
  check_int "tip ray" 1 wp1.W.ray;
  checkf "tip depth" 1. wp1.W.dist;
  check_bool "returns to origin" true (W.is_origin wp2)

let test_itinerary_validation () =
  let w = W.rays 2 in
  let it = It.make ~world:w (fun _ -> W.point (W.rays 5) ~ray:4 ~dist:1.) in
  match It.waypoint it 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "waypoint outside world accepted"

(* ------------------------------------------------------------------ *)
(* Trajectory *)

let doubling_cow () = It.of_line_turns (fun i -> 2. ** float_of_int (i - 1))

let test_trajectory_legs_split_at_origin () =
  let tr = Tr.compile (doubling_cow ()) in
  (* leg 1: out to +1; leg 2: +1 back to origin; leg 3: origin to -2 *)
  let l1 = Tr.leg tr 1 and l2 = Tr.leg tr 2 and l3 = Tr.leg tr 3 in
  check_int "leg1 ray" 0 l1.Tr.ray;
  checkf "leg1 to depth 1" 1. l1.Tr.d_to;
  checkf "leg2 back to origin" 0. l2.Tr.d_to;
  check_int "leg3 on ray 1" 1 l3.Tr.ray;
  checkf "leg3 out to 2" 2. l3.Tr.d_to

let test_trajectory_unit_speed () =
  let tr = Tr.compile (doubling_cow ()) in
  (* each leg's duration equals its length, legs are contiguous in time *)
  let rec check_leg i t_expected =
    if i <= 12 then begin
      let l = Tr.leg tr i in
      checkf (Printf.sprintf "leg %d starts on time" i) t_expected l.Tr.t_start;
      check_leg (i + 1) (l.Tr.t_start +. Float.abs (l.Tr.d_to -. l.Tr.d_from))
    end
  in
  check_leg 1 0.

let test_trajectory_position () =
  let tr = Tr.compile (doubling_cow ()) in
  let pos t = Tr.position tr t in
  check_bool "starts at origin" true (W.is_origin (pos 0.));
  let p = pos 0.5 in
  check_int "heading out ray 0" 0 p.W.ray;
  checkf "at 0.5" 0.5 p.W.dist;
  let p = pos 1.0 in
  checkf "at the first turn" 1. p.W.dist;
  let p = pos 2.0 in
  check_bool "back at origin at t=2" true (W.is_origin p);
  let p = pos 3.0 in
  check_int "on the negative ray" 1 p.W.ray;
  checkf "one deep" 1. p.W.dist

let test_trajectory_first_visit () =
  let tr = Tr.compile (doubling_cow ()) in
  let target = W.point W.line ~ray:1 ~dist:1.5 in
  (* reached going left: t = 2 (return) + 1.5 = 3.5 *)
  (match Tr.first_visit tr ~target ~horizon:100. with
  | Some t -> checkf "first visit" 3.5 t
  | None -> Alcotest.fail "expected a visit");
  let far = W.point W.line ~ray:0 ~dist:1e6 in
  check_bool "beyond horizon" true
    (Tr.first_visit tr ~target:far ~horizon:10. = None)

let test_trajectory_visits_multiple () =
  let tr = Tr.compile (doubling_cow ()) in
  let target = W.point W.line ~ray:0 ~dist:0.5 in
  (* visited at 0.5 (outbound), 1.5 (inbound), then again around the +4 leg *)
  let visits = Tr.visits tr ~target ~horizon:20. in
  check_bool "at least 4 visits" true (List.length visits >= 4);
  checkf "first" 0.5 (List.nth visits 0);
  checkf "second" 1.5 (List.nth visits 1);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check_bool "increasing" true (increasing visits)

let test_trajectory_visit_at_turn_counted_once () =
  let tr = Tr.compile (doubling_cow ()) in
  let target = W.point W.line ~ray:0 ~dist:1. in
  let visits = Tr.visits tr ~target ~horizon:6. in
  (* turn at +1 at t=1 must appear once, not twice *)
  check_int "tangential turn once" 1
    (List.length (List.filter (fun t -> Float.equal t 1.) visits))

let test_trajectory_origin_visits () =
  let tr = Tr.compile (doubling_cow ()) in
  let visits = Tr.visits tr ~target:W.origin ~horizon:7. in
  (* origin visited at t=2, t=6 going between the sides *)
  check_bool "t=2 present" true (List.mem 2. visits);
  check_bool "t=6 present" true (List.mem 6. visits)

let test_trajectory_straight_line () =
  (* monotone waypoints on one ray: no spurious origin returns *)
  let w = W.rays 2 in
  let it = It.make ~world:w (fun i -> W.point w ~ray:0 ~dist:(float_of_int i)) in
  let tr = Tr.compile it in
  let target = W.point w ~ray:0 ~dist:7.5 in
  (match Tr.first_visit tr ~target ~horizon:100. with
  | Some t -> checkf "straight out" 7.5 t
  | None -> Alcotest.fail "expected visit");
  check_int "single visit" 1 (List.length (Tr.visits tr ~target ~horizon:100.))

let test_trajectory_stalled () =
  let w = W.rays 2 in
  let it = It.make ~world:w (fun _ -> W.point w ~ray:0 ~dist:1.) in
  let tr = Tr.compile it in
  match Tr.visits tr ~target:(W.point w ~ray:1 ~dist:5.) ~horizon:1e6 with
  | exception
      Search_numerics.Search_error.Error
        (Search_numerics.Search_error.Non_convergence _) ->
      ()
  | _ -> Alcotest.fail "expected Non_convergence on a constant itinerary"

let test_trajectory_leg_endpoints () =
  let tr = Tr.compile (doubling_cow ()) in
  let eps = Tr.leg_endpoints tr ~horizon:6. in
  (* by t=6: reached +1 (t=1), origin (t=2), -2 (t=4), origin (t=6) *)
  check_bool "contains +1 turn" true (List.mem (0, 1.) eps);
  check_bool "contains -2 turn" true (List.mem (1, 2.) eps)

(* ------------------------------------------------------------------ *)
(* Fault *)

let test_fault_none_and_count () =
  let a = Fault.none Fault.Crash ~robots:4 in
  check_int "no faults" 0 (Fault.count_faulty a);
  let b = Fault.make Fault.Crash ~faulty:[| true; false; true |] in
  check_int "two faults" 2 (Fault.count_faulty b)

let test_fault_worst_for_visits () =
  let visits = [| Some 3.; Some 1.; None; Some 2. |] in
  let a = Fault.worst_for_visits Fault.Crash ~first_visits:visits ~f:2 in
  (* earliest visitors are robots 1 (t=1) and 3 (t=2) *)
  check_bool "robot 1 faulty" true a.Fault.faulty.(1);
  check_bool "robot 3 faulty" true a.Fault.faulty.(3);
  check_bool "robot 0 honest" false a.Fault.faulty.(0);
  check_bool "robot 2 honest" false a.Fault.faulty.(2)

let test_fault_pp () =
  let a = Fault.make Fault.Byzantine ~faulty:[| true; false |] in
  Alcotest.(check string) "pp" "byzantine[x.]" (Format.asprintf "%a" Fault.pp a)

(* ------------------------------------------------------------------ *)
(* Engine *)

let two_staggered_cows () =
  (* robot 0 doubles from 1; robot 1 doubles from 1.5: distinct visit times *)
  [|
    Tr.compile
      (It.of_line_turns ~label:"a" (fun i -> 2. ** float_of_int (i - 1)));
    Tr.compile
      (It.of_line_turns ~label:"b" (fun i ->
           1.5 *. (2. ** float_of_int (i - 1))));
  |]

let test_engine_first_visits () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:0.8 in
  let fv = Engine.first_visits trs ~target ~horizon:100. in
  match (fv.(0), fv.(1)) with
  | Some a, Some b ->
      checkf "robot 0 outbound" 0.8 a;
      checkf "robot 1 outbound" 0.8 b
  | _ -> Alcotest.fail "both robots should visit"

let test_engine_worst_is_f_plus_one_visit () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:1 ~dist:1.2 in
  let fv = Engine.first_visits trs ~target ~horizon:100. in
  let t0 = Option.get fv.(0) and t1 = Option.get fv.(1) in
  (match Engine.detection_time_worst trs ~f:0 ~target ~horizon:100. with
  | Some t -> checkf "f=0: earliest visit" (Float.min t0 t1) t
  | None -> Alcotest.fail "expected detection");
  match Engine.detection_time_worst trs ~f:1 ~target ~horizon:100. with
  | Some t -> checkf "f=1: second visit" (Float.max t0 t1) t
  | None -> Alcotest.fail "expected detection"

let test_engine_worst_matches_fixed_worst_assignment () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:2.7 in
  let fv = Engine.first_visits trs ~target ~horizon:200. in
  let assignment = Fault.worst_for_visits Fault.Crash ~first_visits:fv ~f:1 in
  let fixed =
    Engine.detection_time_fixed trs ~assignment ~target ~horizon:200.
  in
  let worst = Engine.detection_time_worst trs ~f:1 ~target ~horizon:200. in
  check_bool "agree" true (fixed = worst)

let test_engine_not_enough_visitors () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:1.2 in
  (* with f = 2 there are only 2 robots: never certain *)
  check_bool "needs f+1 = 3 robots" true
    (Engine.detection_time_worst trs ~f:2 ~target ~horizon:1000. = None)

let test_engine_ratio_infinity () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:2. in
  check_bool "undetectable -> infinite ratio" true
    (Float.equal
       (Engine.detection_ratio trs ~f:2 ~target ~time_horizon:1000.)
       infinity)

(* all size-[f] subsets of robots [0 .. k-1], as fault assignments *)
let all_f_assignments ~k ~f =
  let rec subsets n = function
    | [] -> if n = 0 then [ [] ] else []
    | x :: rest ->
        if n = 0 then [ [] ]
        else
          List.map (fun s -> x :: s) (subsets (n - 1) rest) @ subsets n rest
  in
  List.map
    (fun faulty_set ->
      let faulty = Array.make k false in
      List.iter (fun r -> faulty.(r) <- true) faulty_set;
      Fault.make Fault.Crash ~faulty)
    (subsets f (List.init k Fun.id))

let test_engine_worst_exhaustive_assignments () =
  (* worst-case detection is the max of fixed-assignment detection over
     every C(k, f) fault assignment — checked by full enumeration *)
  let k = 4 and f = 2 in
  let trs =
    Array.init k (fun r ->
        Tr.compile
          (It.of_line_turns (fun i ->
               (1. +. (0.3 *. float_of_int r)) *. (2. ** float_of_int i))))
  in
  let assignments = all_f_assignments ~k ~f in
  check_int "C(4,2) assignments" 6 (List.length assignments);
  let to_inf = Option.value ~default:infinity in
  List.iter
    (fun dist ->
      let target = W.point W.line ~ray:1 ~dist in
      let worst =
        to_inf (Engine.detection_time_worst trs ~f ~target ~horizon:500.)
      in
      let fixed_max =
        List.fold_left
          (fun acc assignment ->
            Float.max acc
              (to_inf
                 (Engine.detection_time_fixed trs ~assignment ~target
                    ~horizon:500.)))
          neg_infinity assignments
      in
      check_bool "worst = max over all fixed assignments (exact)" true
        (Float.equal worst fixed_max))
    [ 1.1; 3.3; 17.0; 490. ]

let test_engine_worst_exhaustive_tie () =
  (* identical robots: every first visit ties, so every fixed assignment
     yields the same detection time, and it equals the worst case *)
  let k = 4 and f = 1 in
  let trs =
    Array.init k (fun _ ->
        Tr.compile (It.of_line_turns (fun i -> 2. ** float_of_int i)))
  in
  let target = W.point W.line ~ray:0 ~dist:1.7 in
  let worst = Engine.detection_time_worst trs ~f ~target ~horizon:100. in
  check_bool "tie detected" true (worst <> None);
  List.iter
    (fun assignment ->
      check_bool "every fixed assignment equals worst" true
        (Engine.detection_time_fixed trs ~assignment ~target ~horizon:100.
        = worst))
    (all_f_assignments ~k ~f)

(* ------------------------------------------------------------------ *)
(* Stochastic *)

module St = Search_sim.Stochastic

let test_stochastic_sum_tolerance () =
  let p = W.point W.line ~ray:0 ~dist:2. in
  let q = W.point W.line ~ray:1 ~dist:2. in
  (* off by 9e-10: inside the 1e-9 tolerance, accepted and renormalised *)
  let d = St.make [ (p, 0.5); (q, 0.5 +. 9e-10) ] in
  checkf "renormalised E|d|" 2. (St.expected_distance d);
  (* off by 2e-9: outside the tolerance, rejected *)
  Alcotest.check_raises "sum off by 2e-9"
    (Search_numerics.Search_error.Error
       (Search_numerics.Search_error.Invalid_input
          { where = "Stochastic.make"; what = "weights must sum to 1" }))
    (fun () -> ignore (St.make [ (p, 0.5); (q, 0.5 +. 2e-9) ]))

let test_stochastic_single_point () =
  let p = W.point W.line ~ray:0 ~dist:5. in
  let d = St.make [ (p, 1.) ] in
  checkf "E|d| is the point" 5. (St.expected_distance d);
  checkf "matches point_mass" (St.expected_distance (St.point_mass p))
    (St.expected_distance d)

let test_stochastic_rejects_bad_weights () =
  let p = W.point W.line ~ray:0 ~dist:1. in
  let q = W.point W.line ~ray:1 ~dist:2. in
  let expect_invalid what support =
    Alcotest.check_raises what
      (Search_numerics.Search_error.Error
         (Search_numerics.Search_error.Invalid_input
            { where = "Stochastic.make"; what }))
      (fun () -> ignore (St.make support))
  in
  expect_invalid "empty support" [];
  (* NaN weights used to slip past [w <= 0.] (false for NaN) and then
     poison the sum check; now rejected up front *)
  expect_invalid "weight not finite" [ (p, 0.5); (q, Float.nan) ];
  expect_invalid "weight not finite" [ (p, 0.5); (q, infinity) ];
  expect_invalid "weight <= 0" [ (p, 1.); (q, 0.) ];
  expect_invalid "weight <= 0" [ (p, 1.5); (q, -0.5) ]

(* ------------------------------------------------------------------ *)
(* Adversary / Competitive *)

let test_adversary_cow_path_is_nine () =
  let tr = [| Tr.compile (doubling_cow ()) |] in
  let out = Adv.worst_case tr ~f:0 ~n:1000. () in
  check_bool "close to 9 from below" true
    (out.Adv.ratio > 8.99 && out.Adv.ratio <= 9.0 +. 1e-6)

let test_adversary_candidates_cover_rays () =
  let tr = [| Tr.compile (doubling_cow ()) |] in
  let cands = Adv.candidate_targets tr ~n:100. ~time_horizon:1000. () in
  check_bool "has ray-0 candidates" true
    (List.exists (fun p -> p.W.ray = 0) cands);
  check_bool "has ray-1 candidates" true
    (List.exists (fun p -> p.W.ray = 1) cands);
  List.iter
    (fun p -> check_bool "in range" true (p.W.dist >= 1. && p.W.dist <= 100.))
    cands

(* Duplicate candidates: two identical trajectories hit the same leg
   endpoints, so before dedup every breakpoint was scanned twice (and
   the [1.]/[n] anchors collided with endpoints).  The deduped scan of
   the pair must do exactly the work of the single robot, with the
   verdict untouched. *)
let test_adversary_dedup_candidates () =
  let one = [| Tr.compile (doubling_cow ()) |] in
  let two = [| Tr.compile (doubling_cow ()); Tr.compile (doubling_cow ()) |] in
  let out1 = Adv.worst_case one ~f:0 ~n:200. () in
  let out2 = Adv.worst_case two ~f:0 ~n:200. () in
  check_int "identical robots add no candidates" out1.Adv.candidates_scanned
    out2.Adv.candidates_scanned;
  check_bool "ratio unchanged" true (Float.equal out1.Adv.ratio out2.Adv.ratio);
  check_bool "witness unchanged" true
    (W.equal_point out1.Adv.witness out2.Adv.witness);
  (* and the candidate list itself is duplicate-free and sorted *)
  let cands = Adv.candidate_targets two ~n:200. ~time_horizon:1000. () in
  let rec strictly_ordered = function
    | a :: (b :: _ as rest) ->
        (a.W.ray < b.W.ray || (a.W.ray = b.W.ray && a.W.dist < b.W.dist))
        && strictly_ordered rest
    | [ _ ] | [] -> true
  in
  check_bool "sorted, no duplicates" true (strictly_ordered cands)

(* The flat (struct-of-arrays) leg view must agree bit for bit with the
   lazy walk on every non-origin target. *)
let test_trajectory_flat_first_visit () =
  let tr = Tr.compile (doubling_cow ()) in
  let horizon = 500. in
  let fl = Tr.flatten tr ~horizon in
  for ray = 0 to 1 do
    List.iter
      (fun dist ->
        let target = W.point W.line ~ray ~dist in
        let reference =
          match Tr.first_visit tr ~target ~horizon with
          | Some t -> t
          | None -> infinity
        in
        let flat = Tr.flat_first_visit fl ~ray ~dist ~horizon in
        check_bool
          (Printf.sprintf "ray %d dist %g" ray dist)
          true
          (Int64.equal (Int64.bits_of_float reference)
             (Int64.bits_of_float flat)))
      [ 1.; 1.5; 2.; 3.7; 16.; 100.; 200.; 450. ]
  done

(* The compiled scan must reproduce [Adversary.reference] exactly:
   same supremum, same witness, same candidate count. *)
let test_adversary_kernels_agree () =
  let instances =
    [
      ([| Tr.compile (doubling_cow ()) |], 0, 500.);
      ( Array.map Tr.compile
          (Search_strategy.Mray_exponential.itineraries
             (Search_strategy.Mray_exponential.make
                (Search_bounds.Params.line ~k:3 ~f:1))),
        1,
        200. );
    ]
  in
  List.iter
    (fun (trs, f, n) ->
      let l = Adv.reference trs ~f ~n () in
      let c = Adv.worst_case trs ~f ~n () in
      check_bool "ratio bitwise" true
        (Int64.equal
           (Int64.bits_of_float l.Adv.ratio)
           (Int64.bits_of_float c.Adv.ratio));
      check_bool "witness" true (W.equal_point l.Adv.witness c.Adv.witness);
      check_bool "detection time" true
        (Float.equal l.Adv.detection_time c.Adv.detection_time);
      check_int "scanned" l.Adv.candidates_scanned c.Adv.candidates_scanned)
    instances;
  (* f >= k: every candidate escapes under both *)
  let tr = [| Tr.compile (doubling_cow ()) |] in
  let l = Adv.reference tr ~f:2 ~n:50. () in
  let c = Adv.worst_case tr ~f:2 ~n:50. () in
  check_bool "escape reference" true (Float.equal l.Adv.ratio infinity);
  check_bool "escape compiled" true (Float.equal c.Adv.ratio infinity);
  check_bool "escape witness" true (W.equal_point l.Adv.witness c.Adv.witness)

(* Degenerate inputs for the compiled scan: the singleton candidate
   set (n = 1 collapses each ray to the single depth 1.), k = 1 with
   f = 0, and — through the exposed kernel directly — candidate sets
   the public API cannot produce: no robots, empty depth rows. *)
let test_adversary_kernel_degenerate () =
  let tr = [| Tr.compile (doubling_cow ()) |] in
  let l = Adv.reference tr ~f:0 ~n:1. () in
  let c = Adv.worst_case tr ~f:0 ~n:1. () in
  check_bool "singleton ratio bitwise" true
    (Int64.equal
       (Int64.bits_of_float l.Adv.ratio)
       (Int64.bits_of_float c.Adv.ratio));
  check_bool "singleton witness" true (W.equal_point l.Adv.witness c.Adv.witness);
  check_int "singleton scanned" l.Adv.candidates_scanned
    c.Adv.candidates_scanned;
  (* the raw kernel on an empty candidate set reports the sentinel *)
  let out = [| 0.; 0.; 0. |] in
  Adv.compiled_scan ~flats:[||] ~depths:[| [||]; [||] |] ~times:[||] ~f:0
    ~k:0 ~horizon:10. ~out;
  check_bool "empty candidates sentinel" true
    (Float.equal out.(0) neg_infinity);
  (* empty depth rows on one ray, a singleton on the other *)
  let fl = Tr.flatten tr.(0) ~horizon:100. in
  Adv.compiled_scan ~flats:[| fl |] ~depths:[| [||]; [| 1. |] |]
    ~times:[| infinity |] ~f:0 ~k:1 ~horizon:100. ~out;
  check_bool "singleton row scanned" true (out.(0) > 0.);
  check_bool "singleton row ray" true (Float.equal out.(1) 1.);
  check_bool "singleton row dist" true (Float.equal out.(2) 1.)

let test_adversary_partition_ratio_one () =
  (* k=2 straight-out robots, f=0 on the line: ratio exactly 1 *)
  let w = W.line in
  let straight ray =
    Tr.compile
      (It.make ~world:w (fun i -> W.point w ~ray ~dist:(2. ** float_of_int i)))
  in
  let out = Adv.worst_case [| straight 0; straight 1 |] ~f:0 ~n:100. () in
  checkf "ratio one" 1. out.Adv.ratio

let test_competitive_profile () =
  let tr = [| Tr.compile (doubling_cow ()) |] in
  let pts = Comp.profile tr ~f:0 ~n:100. ~samples:8 () in
  check_int "8 samples x 2 rays" 16 (List.length pts);
  List.iter
    (fun p ->
      check_bool "ratio sane" true
        (p.Comp.ratio >= 1. && p.Comp.ratio <= 9.0 +. 1e-6))
    pts

(* ------------------------------------------------------------------ *)
(* Byzantine_sim *)

let test_byzantine_safety_no_false_confirmation () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:2.7 in
  let assignment = Fault.make Fault.Byzantine ~faulty:[| true; false |] in
  (* the faulty robot lies at a place it genuinely occupies: robot 0 is at
     +0.5 at t = 0.5 *)
  let lie =
    { Byz.robot = 0; place = W.point W.line ~ray:0 ~dist:0.5; at_time = 0.5 }
  in
  let result = Byz.run trs ~assignment ~lies:[ lie ] ~target ~horizon:100. in
  check_bool "no false confirmation" true (result.Byz.false_confirmation = None);
  (* with k = 2, f = 1 the rule needs 2 announcers; the faulty robot never
     announces the target, so the target is never confirmed *)
  check_bool "silent fault blocks 2-of-2" true (result.Byz.confirmed_at = None)

let test_byzantine_liveness_three_robots () =
  let trs =
    [|
      Tr.compile
        (It.of_line_turns ~label:"a" (fun i -> 2. ** float_of_int (i - 1)));
      Tr.compile
        (It.of_line_turns ~label:"b" (fun i ->
             1.5 *. (2. ** float_of_int (i - 1))));
      Tr.compile
        (It.of_line_turns ~label:"c" (fun i ->
             1.25 *. (2. ** float_of_int (i - 1))));
    |]
  in
  let target = W.point W.line ~ray:0 ~dist:1.1 in
  let assignment = Fault.make Fault.Byzantine ~faulty:[| true; false; false |] in
  let result = Byz.run trs ~assignment ~lies:[] ~target ~horizon:200. in
  (match result.Byz.confirmed_at with
  | Some t ->
      let worst = Byz.worst_case_detection trs ~f:1 ~target ~horizon:200. in
      check_bool "confirmation no later than the rule's worst case" true
        (match worst with Some w -> t <= w +. 1e-9 | None -> false)
  | None -> Alcotest.fail "expected confirmation");
  check_bool "no false confirmation" true (result.Byz.false_confirmation = None)

let test_byzantine_invalid_lie_rejected () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:2. in
  let assignment = Fault.make Fault.Byzantine ~faulty:[| true; false |] in
  let impossible_lie =
    { Byz.robot = 0; place = W.point W.line ~ray:0 ~dist:50.; at_time = 0.1 }
  in
  (match
     Byz.run trs ~assignment ~lies:[ impossible_lie ] ~target ~horizon:10.
   with
  | exception
      Search_numerics.Search_error.Error
        (Search_numerics.Search_error.Invalid_input _) ->
      ()
  | _ -> Alcotest.fail "teleporting lie accepted");
  let honest_lie =
    { Byz.robot = 1; place = W.point W.line ~ray:0 ~dist:0.5; at_time = 0.5 }
  in
  match Byz.run trs ~assignment ~lies:[ honest_lie ] ~target ~horizon:10. with
  | exception
      Search_numerics.Search_error.Error
        (Search_numerics.Search_error.Invalid_input _) ->
      ()
  | _ -> Alcotest.fail "honest robot lying accepted"

let test_byzantine_worst_is_2f_plus_1st_visit () =
  (* the conservative rule needs f+1 honest announcers, so its worst case
     is the (2f+1)-st distinct visit — strictly later than the crash
     model's (f+1)-st, witnessing B >= A *)
  let trs =
    Array.init 3 (fun r ->
        Tr.compile
          (It.of_line_turns (fun i ->
               (1. +. (0.25 *. float_of_int r)) *. (2. ** float_of_int (i - 1)))))
  in
  let target = W.point W.line ~ray:1 ~dist:3.3 in
  let byz = Byz.worst_case_detection trs ~f:1 ~target ~horizon:500. in
  check_bool "equals engine with 2f faults" true
    (byz = Engine.detection_time_worst trs ~f:2 ~target ~horizon:500.);
  let crash = Engine.detection_time_worst trs ~f:1 ~target ~horizon:500. in
  check_bool "no earlier than crash" true
    (match (byz, crash) with
    | Some b, Some c -> b >= c
    | _ -> false);
  (* with only 2 robots and f = 1, 2f+1 = 3 visitors can never exist *)
  let two = two_staggered_cows () in
  check_bool "impossible with 2 robots" true
    (Byz.worst_case_detection two ~f:1 ~target ~horizon:500. = None)


(* ------------------------------------------------------------------ *)
(* Exact_adversary *)

module EA = Search_sim.Exact_adversary

let plain_doubling_zigzag () =
  (* turns 1, 2, 4, ... (scale 0.5, alpha 2), positive first *)
  Tr.compile
    (It.of_line_turns (fun i -> 0.5 *. (2. ** float_of_int i)))

let test_exact_first_visit_pieces () =
  let tr = plain_doubling_zigzag () in
  (* on ray 0 the depths (0, 1] are covered by leg 1 starting at t = 0:
     first piece is T(x) = x *)
  match EA.first_visit_pieces tr ~ray:0 ~x_max:10. ~time_horizon:1e4 with
  | p1 :: p2 :: _ ->
      checkf "first piece starts at 0" 0. p1.EA.x_lo;
      checkf "ends at the first turn" 1. p1.EA.x_hi;
      checkf "T(x) = x" 0. p1.EA.a;
      checkf "slope 1" 1. p1.EA.b;
      (* second outbound stretch on ray 0 is the +4 leg: depths (1, 4],
         reached at t = 1 + 1 + 2 + 2 + x = 6 + x *)
      checkf "second piece from 1" 1. p2.EA.x_lo;
      checkf "to 4" 4. p2.EA.x_hi;
      checkf "offset 6" 6. p2.EA.a
  | _ -> Alcotest.fail "expected at least two pieces"

let test_exact_matches_closed_form () =
  (* doubling zigzag: exact sup over [1, n] equals 9 - 2/t for the
     largest turning point t <= n *)
  let zig = [| plain_doubling_zigzag () |] in
  List.iter
    (fun (n, t_max) ->
      let out = EA.worst_case zig ~f:0 ~n () in
      checkf
        (Printf.sprintf "n=%g" n)
        (9. -. (2. /. t_max))
        out.EA.sup;
      checkf "witness at the turning point" t_max out.EA.witness_dist;
      check_bool "one-sided limit" true (not out.EA.attained))
    [ (10., 8.); (100., 64.); (1000., 512.) ]

let test_exact_agrees_with_scan () =
  let p = Search_bounds.Params.line ~k:3 ~f:1 in
  let trs =
    Search_strategy.Group.trajectories (Search_strategy.Group.optimal p)
  in
  let exact = (EA.worst_case trs ~f:1 ~n:500. ()).EA.sup in
  let scan = (Adv.worst_case trs ~f:1 ~n:500. ()).Adv.ratio in
  check_bool "scan within 1e-5 of exact" true (Float.abs (exact -. scan) < 1e-5);
  check_bool "scan never exceeds exact" true (scan <= exact +. 1e-12)

let test_exact_undetectable_infinite () =
  let zig = [| plain_doubling_zigzag (); plain_doubling_zigzag () |] in
  check_bool "f = 2 with 2 robots" true
    (Float.equal (EA.worst_case zig ~f:2 ~n:50. ()).EA.sup infinity)

let test_exact_order_statistic () =
  (* two explicit functions: f0 = x on (0, 10], f1 = 5 + x on (0, 10];
     rank 1 (the later of the two) is 5 + x everywhere *)
  let fns =
    [|
      [ { EA.x_lo = 0.; x_hi = 10.; a = 0.; b = 1. } ];
      [ { EA.x_lo = 0.; x_hi = 10.; a = 5.; b = 1. } ];
    |]
  in
  match EA.order_statistic fns ~rank:1 ~x_max:10. with
  | [ p ] ->
      checkf "offset" 5. p.EA.a;
      checkf "slope" 1. p.EA.b
  | l -> Alcotest.failf "expected one piece, got %d" (List.length l)

let test_exact_order_statistic_crossing () =
  (* f0 = 10 - x (slope -1), f1 = x: they cross at x = 5; the max of the
     two (rank 1) is 10 - x before, x after *)
  let fns =
    [|
      [ { EA.x_lo = 0.; x_hi = 10.; a = 10.; b = -1. } ];
      [ { EA.x_lo = 0.; x_hi = 10.; a = 0.; b = 1. } ];
    |]
  in
  let pieces = EA.order_statistic fns ~rank:1 ~x_max:10. in
  check_bool "crossing creates a boundary at 5" true
    (List.exists (fun p -> Float.abs (p.EA.x_hi -. 5.) < 1e-12) pieces);
  let at x =
    List.find (fun p -> x > p.EA.x_lo && x <= p.EA.x_hi) pieces
  in
  checkf "left of the crossing" 7. ((at 3.).EA.a +. ((at 3.).EA.b *. 3.));
  checkf "right of the crossing" 7. ((at 7.).EA.a +. ((at 7.).EA.b *. 7.))


(* ------------------------------------------------------------------ *)
(* Event_log *)

module EL = Search_sim.Event_log

let test_event_log_structure () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:2.2 in
  let fv = Engine.first_visits trs ~target ~horizon:200. in
  let assignment = Fault.worst_for_visits Fault.Crash ~first_visits:fv ~f:1 in
  let entries = EL.narrate_crash trs ~assignment ~target ~horizon:200. in
  check_bool "nonempty" true (List.length entries > 2);
  (* chronological *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.EL.time <= b.EL.time && sorted rest
    | _ -> true
  in
  check_bool "chronological" true (sorted entries);
  (* the faulty visitor is narrated as silent, the detection is present *)
  let texts = List.map (fun e -> e.EL.text) entries in
  let has sub =
    List.exists
      (fun t ->
        let n = String.length sub in
        let rec search i =
          i + n <= String.length t && (String.sub t i n = sub || search (i + 1))
        in
        search 0)
      texts
  in
  check_bool "silent fault narrated" true (has "stays silent");
  check_bool "confirmation narrated" true (has "confirmed");
  (* confirmation time = engine detection time *)
  let last = List.nth entries (List.length entries - 1) in
  (match Engine.detection_time_worst trs ~f:1 ~target ~horizon:200. with
  | Some t -> checkf "confirmation time" t last.EL.time
  | None -> Alcotest.fail "expected detection")

let test_event_log_min_turn_depth () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:2.2 in
  let assignment = Fault.none Fault.Crash ~robots:2 in
  let all = EL.narrate_crash trs ~assignment ~target ~horizon:50. in
  let filtered =
    EL.narrate_crash ~min_turn_depth:2. trs ~assignment ~target ~horizon:50.
  in
  check_bool "filter drops shallow turns" true
    (List.length filtered < List.length all)

let test_event_log_undetected () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:40. in
  let assignment = Fault.none Fault.Crash ~robots:2 in
  let entries = EL.narrate_crash trs ~assignment ~target ~horizon:10. in
  let last = List.nth entries (List.length entries - 1) in
  check_bool "mentions not yet confirmed" true
    (let t = last.EL.text in
     String.length t >= 7
     && (let n = String.length "not yet" in
         let rec search i =
           i + n <= String.length t
           && (String.sub t i n = "not yet" || search (i + 1))
         in
         search 0))

(* ------------------------------------------------------------------ *)
(* stress (Slow) *)

let test_stress_deep_trajectory () =
  (* position queries deep into a geometric zigzag: millions of time
     units, hundreds of legs, constant stack *)
  let tr = Tr.compile (doubling_cow ()) in
  let p = Tr.position tr 1e7 in
  check_bool "finite position" true (Float.is_finite p.W.dist);
  check_bool "within reach" true (p.W.dist <= 1e7)

let test_stress_large_horizon_adversary () =
  let p = Search_bounds.Params.line ~k:3 ~f:1 in
  let trs =
    Search_strategy.Group.trajectories (Search_strategy.Group.optimal p)
  in
  let out = Adv.worst_case trs ~f:1 ~n:1e5 () in
  let bound = Search_bounds.Formulas.a_line ~k:3 ~f:1 in
  check_bool "within bound at N=1e5" true (out.Adv.ratio <= bound +. 1e-6);
  check_bool "close to bound" true (bound -. out.Adv.ratio < 1e-4)


(* ------------------------------------------------------------------ *)
(* Svg_render *)

module Svg = Search_sim.Svg_render

let contains hay needle =
  let n = String.length needle in
  let rec search i =
    i + n <= String.length hay && (String.sub hay i n = needle || search (i + 1))
  in
  search 0

let test_svg_basic_document () =
  let trs = two_staggered_cows () in
  let svg = Svg.space_time ~time_max:30. trs in
  check_bool "is svg" true (contains svg "<svg");
  check_bool "closes" true (contains svg "</svg>");
  check_bool "two polylines" true
    (List.length (String.split_on_char 'p' svg) > 2
    && contains svg "polyline");
  check_bool "labels present" true (contains svg ">a<" || contains svg ">a ")

let test_svg_target_and_detection () =
  let trs = two_staggered_cows () in
  let target = W.point W.line ~ray:0 ~dist:2.2 in
  let fv = Engine.first_visits trs ~target ~horizon:100. in
  let fault = Fault.worst_for_visits Fault.Crash ~first_visits:fv ~f:1 in
  let svg = Svg.space_time ~target ~fault ~time_max:40. trs in
  check_bool "visit markers" true (contains svg "<circle");
  check_bool "faulty flagged" true (contains svg "(faulty)");
  check_bool "target labelled" true (contains svg "target")

let test_svg_validation () =
  (match Svg.space_time [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty array accepted");
  let w3 = W.rays 3 in
  let tr =
    Tr.compile
      (It.make ~world:w3 (fun i -> W.point w3 ~ray:0 ~dist:(float_of_int i)))
  in
  match Svg.space_time [| tr |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "3-ray world accepted"

let test_svg_write_roundtrip () =
  let trs = two_staggered_cows () in
  let svg = Svg.space_time ~time_max:10. trs in
  let path = Filename.temp_file "fsearch" ".svg" in
  Svg.write ~path svg;
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "roundtrip" svg content

(* ------------------------------------------------------------------ *)
(* properties *)

let gen_turns =
  (* increasing positive turning points, geometric with random base/scale *)
  QCheck2.Gen.(
    let* base = float_range 1.2 3. in
    let* scale = float_range 0.1 2. in
    return (fun i -> scale *. (base ** float_of_int i)))

let prop_unit_speed =
  QCheck2.Test.make ~count:100 ~name:"legs are contiguous and unit speed"
    gen_turns (fun turns ->
      let tr = Tr.compile (It.of_line_turns turns) in
      let ok = ref true in
      let t = ref 0. in
      for i = 1 to 20 do
        let l = Tr.leg tr i in
        if Float.abs (l.Tr.t_start -. !t) > 1e-6 *. Float.max 1. !t then
          ok := false;
        t := l.Tr.t_start +. Float.abs (l.Tr.d_to -. l.Tr.d_from)
      done;
      !ok)

let prop_position_continuous =
  QCheck2.Test.make ~count:50 ~name:"position is 1-Lipschitz in time" gen_turns
    (fun turns ->
      let tr = Tr.compile (It.of_line_turns turns) in
      let ok = ref true in
      for i = 0 to 80 do
        let t1 = 0.25 *. float_of_int i in
        let t2 = t1 +. 0.125 in
        let p1 = Tr.position tr t1 and p2 = Tr.position tr t2 in
        if W.travel_distance p1 p2 > 0.125 +. 1e-9 then ok := false
      done;
      !ok)

let prop_first_visit_is_min_of_visits =
  QCheck2.Test.make ~count:100 ~name:"first_visit = head of visits" gen_turns
    (fun turns ->
      let tr = Tr.compile (It.of_line_turns turns) in
      let target = W.point W.line ~ray:0 ~dist:1.3 in
      match
        ( Tr.first_visit tr ~target ~horizon:300.,
          Tr.visits tr ~target ~horizon:300. )
      with
      | None, [] -> true
      | Some t, x :: _ -> Float.equal t x
      | _ -> false)

let prop_exact_vs_scan_random_groups =
  (* the exact piecewise-affine supremum dominates the bracketing scan
     and agrees with it to scan precision, on random staggered groups *)
  QCheck2.Test.make ~count:15 ~name:"exact adversary vs scan"
    QCheck2.Gen.(
      let* alpha = float_range 1.4 2.6 in
      let* k = int_range 1 3 in
      let* f = int_range 0 (k - 1) in
      return (alpha, k, f))
    (fun (alpha, k, f) ->
      let trs =
        Array.init k (fun r ->
            Tr.compile
              (It.of_line_turns (fun i ->
                   (1. +. (0.37 *. float_of_int r))
                   *. (alpha ** float_of_int i))))
      in
      let exact = (EA.worst_case trs ~f ~n:80. ()).EA.sup in
      let scan = (Adv.worst_case trs ~f ~n:80. ()).Adv.ratio in
      match (Float.is_finite exact, Float.is_finite scan) with
      | true, true -> scan <= exact +. 1e-9 && exact -. scan < 1e-4
      | a, b -> a = b)

let properties =
  Fixture.properties
    [
      prop_unit_speed;
      prop_exact_vs_scan_random_groups;
      prop_position_continuous;
      prop_first_visit_is_min_of_visits;
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sim"
    [
      ( "world",
        [
          tc "arity" `Quick test_world_arity;
          tc "point validation" `Quick test_world_point_validation;
          tc "travel distance" `Quick test_world_travel_distance;
          tc "origin equality" `Quick test_world_origin_equality;
          tc "line coordinate" `Quick test_world_line_coordinate;
        ] );
      ( "itinerary",
        [
          tc "line turns" `Quick test_itinerary_line_turns;
          tc "excursions" `Quick test_itinerary_excursions;
          tc "validation" `Quick test_itinerary_validation;
        ] );
      ( "trajectory",
        [
          tc "legs split at origin" `Quick test_trajectory_legs_split_at_origin;
          tc "unit speed" `Quick test_trajectory_unit_speed;
          tc "position" `Quick test_trajectory_position;
          tc "first visit" `Quick test_trajectory_first_visit;
          tc "multiple visits" `Quick test_trajectory_visits_multiple;
          tc "tangential turn once" `Quick
            test_trajectory_visit_at_turn_counted_once;
          tc "origin visits" `Quick test_trajectory_origin_visits;
          tc "straight line" `Quick test_trajectory_straight_line;
          tc "stalled detection" `Quick test_trajectory_stalled;
          tc "leg endpoints" `Quick test_trajectory_leg_endpoints;
        ] );
      ( "fault",
        [
          tc "none and count" `Quick test_fault_none_and_count;
          tc "worst for visits" `Quick test_fault_worst_for_visits;
          tc "pp" `Quick test_fault_pp;
        ] );
      ( "engine",
        [
          tc "first visits" `Quick test_engine_first_visits;
          tc "(f+1)-st visit" `Quick test_engine_worst_is_f_plus_one_visit;
          tc "worst matches fixed" `Quick
            test_engine_worst_matches_fixed_worst_assignment;
          tc "not enough visitors" `Quick test_engine_not_enough_visitors;
          tc "infinite ratio" `Quick test_engine_ratio_infinity;
          tc "exhaustive assignments" `Quick
            test_engine_worst_exhaustive_assignments;
          tc "exhaustive tie" `Quick test_engine_worst_exhaustive_tie;
        ] );
      ( "stochastic",
        [
          tc "sum tolerance" `Quick test_stochastic_sum_tolerance;
          tc "single point" `Quick test_stochastic_single_point;
          tc "bad weights rejected" `Quick test_stochastic_rejects_bad_weights;
        ] );
      ( "adversary",
        [
          tc "cow path is 9" `Quick test_adversary_cow_path_is_nine;
          tc "candidates cover rays" `Quick test_adversary_candidates_cover_rays;
          tc "dedup candidates" `Quick test_adversary_dedup_candidates;
          tc "flat first visit" `Quick test_trajectory_flat_first_visit;
          tc "kernels agree" `Quick test_adversary_kernels_agree;
          tc "kernel degenerate inputs" `Quick test_adversary_kernel_degenerate;
          tc "partition ratio one" `Quick test_adversary_partition_ratio_one;
        ] );
      ( "competitive",
        [
          tc "profile" `Quick test_competitive_profile;
        ] );
      ( "byzantine",
        [
          tc "safety" `Quick test_byzantine_safety_no_false_confirmation;
          tc "liveness" `Quick test_byzantine_liveness_three_robots;
          tc "invalid lies rejected" `Quick test_byzantine_invalid_lie_rejected;
          tc "worst is (2f+1)-st visit" `Quick
            test_byzantine_worst_is_2f_plus_1st_visit;
        ] );
      ( "exact_adversary",
        [
          tc "first-visit pieces" `Quick test_exact_first_visit_pieces;
          tc "closed form on doubling" `Quick test_exact_matches_closed_form;
          tc "agrees with the scan" `Quick test_exact_agrees_with_scan;
          tc "undetectable infinite" `Quick test_exact_undetectable_infinite;
          tc "order statistic" `Quick test_exact_order_statistic;
          tc "order statistic crossing" `Quick test_exact_order_statistic_crossing;
        ] );
      ( "event_log",
        [
          tc "structure" `Quick test_event_log_structure;
          tc "min turn depth" `Quick test_event_log_min_turn_depth;
          tc "undetected" `Quick test_event_log_undetected;
        ] );
      ( "svg",
        [
          tc "basic document" `Quick test_svg_basic_document;
          tc "target and detection" `Quick test_svg_target_and_detection;
          tc "validation" `Quick test_svg_validation;
          tc "write roundtrip" `Quick test_svg_write_roundtrip;
        ] );
      ( "stress",
        [
          tc "deep trajectory" `Slow test_stress_deep_trajectory;
          tc "large horizon adversary" `Slow test_stress_large_horizon_adversary;
        ] );
      ("properties", properties);
    ]
