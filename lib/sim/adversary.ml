module Stats = Search_numerics.Stats
module Search_error = Search_numerics.Search_error

type outcome = {
  ratio : float;
  witness : World.point;
  detection_time : float;
  candidates_scanned : int;
}

let default_eps = 1e-7
let default_ratio_cap = 256.

(* Sorted dedup in place: candidate depths come in with real duplicates
   (the same turning depth reached by several trajectories, and the
   always-added [1.]/[n] colliding with leg endpoints), and every
   duplicate re-runs a full detection scan for an identical answer. *)
let sorted_dedup a =
  let n = Array.length a in
  if n <= 1 then a
  else begin
    Array.sort Float.compare a;
    let w = ref 1 in
    for r = 1 to n - 1 do
      if not (Float.equal a.(r) a.(!w - 1)) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    Array.sub a 0 !w
  end

(* Per-ray candidate depths, each ascending and duplicate-free.  Both
   [worst_case] and [reference] scan rays in index order and depths in
   ascending order, so the supremum fold visits identical (ray, depth)
   sequences — same ratio, same witness. *)
let candidate_depths trajectories ~eps ~n ~time_horizon =
  if n < 1. then
    Search_error.invalid ~where:"Adversary.candidate_targets" "need n >= 1";
  let world = Trajectory.world trajectories.(0) in
  let m = World.arity world in
  let depths_per_ray = Array.make m [] in
  let add ray d =
    if d >= 1. && d <= n then depths_per_ray.(ray) <- d :: depths_per_ray.(ray)
  in
  for ray = 0 to m - 1 do
    add ray 1.;
    add ray n
  done;
  Array.iter
    (fun tr ->
      List.iter
        (fun (ray, d) ->
          add ray d;
          add ray (d *. (1. -. eps));
          add ray (d *. (1. +. eps)))
        (Trajectory.leg_endpoints tr ~horizon:time_horizon))
    trajectories;
  Array.map (fun ds -> sorted_dedup (Array.of_list ds)) depths_per_ray

let candidate_targets trajectories ?(eps = default_eps) ~n ~time_horizon () =
  let world = Trajectory.world trajectories.(0) in
  let depths = candidate_depths trajectories ~eps ~n ~time_horizon in
  List.concat
    (List.mapi
       (fun ray ds ->
         Array.to_list ds |> List.map (fun d -> World.point world ~ray ~dist:d))
       (Array.to_list depths))

(* The compiled detection scan, extracted so the allocation lint can
   hold it to a zero budget and the bench can put a Gc meter on it.
   Writes [best ratio; best ray (as float); best dist] into [out]
   (unit return — a float return would box on the way out); [times] is
   the reused (f+1)-st-order-statistic scratch.  The flat first-visit
   probe is inlined (a cross-module call pays the float-return box) and
   the per-candidate [Array.sort] is an in-place insertion sort — [k]
   is the robot count, single digits, where insertion sort on an
   almost-sorted scratch beats the closure-per-comparison of
   [Array.sort Float.compare]. *)
let[@hot] compiled_scan ~flats ~depths ~times ~f ~k ~horizon ~out =
  out.(0) <- neg_infinity;
  out.(1) <- 0.;
  out.(2) <- 0.;
  for ray = 0 to Array.length depths - 1 do
    let ds = depths.(ray) in
    for di = 0 to Array.length ds - 1 do
      let d = ds.(di) in
      for r = 0 to k - 1 do
        let fl = flats.(r) in
        let len = Array.length fl.Trajectory.flat_starts in
        let j = ref 0 in
        let visit = ref infinity in
        let scanning = ref true in
        while !scanning && !j < len do
          if
            Int.equal fl.Trajectory.flat_rays.(!j) ray
            && d >= fl.Trajectory.flat_los.(!j)
            && d <= fl.Trajectory.flat_his.(!j)
          then begin
            let time =
              fl.Trajectory.flat_starts.(!j)
              +. Float.abs (d -. fl.Trajectory.flat_froms.(!j))
            in
            if time <= horizon then visit := time;
            scanning := false
          end
          else incr j
        done;
        times.(r) <- !visit
      done;
      for i = 1 to k - 1 do
        let x = times.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && times.(!j) > x do
          times.(!j + 1) <- times.(!j);
          decr j
        done;
        times.(!j + 1) <- x
      done;
      let t = if f < k then times.(f) else infinity in
      let ratio = if Float.equal t infinity then infinity else t /. d in
      (* same contract as [Stats.sup_add]: a NaN ratio surfaces.  NaN
         fails every ordered comparison, so this is the primitive NaN
         test — [Float.is_nan] would box the unboxed local to make the
         call. *)
      if not (ratio >= neg_infinity) then
        Search_error.raise_
          (Search_error.Non_convergence
             {
               where = "Stats.sup_add";
               steps = 0;
               detail = "supremum fed a NaN sample";
             });
      if ratio > out.(0) then begin
        out.(0) <- ratio;
        out.(1) <- Float.of_int ray;
        out.(2) <- d
      end
    done
  done

let outcome ~ratio ~witness ~candidates_scanned =
  let detection_time =
    if Float.equal ratio infinity then infinity else ratio *. witness.World.dist
  in
  { ratio; witness; detection_time; candidates_scanned }

let worst_case trajectories ~f ?(eps = default_eps)
    ?(ratio_cap = default_ratio_cap) ~n () =
  if Array.length trajectories = 0 then
    Search_error.invalid ~where:"Adversary.worst_case" "no robots";
  let time_horizon = ratio_cap *. n in
  let world = Trajectory.world trajectories.(0) in
  let depths = candidate_depths trajectories ~eps ~n ~time_horizon in
  let scanned = Array.fold_left (fun acc a -> acc + Array.length a) 0 depths in
  if f < 0 then Search_error.invalid ~where:"Adversary.worst_case" "f < 0";
  (* flat leg arrays, a reused scratch array for the (f+1)-st smallest
     visit time, no per-candidate allocation.  The arithmetic (visit
     times, the (f+1)-st order statistic, the ratio) matches [reference]
     bit for bit, and candidates are visited in the same order, so ratio
     and witness agree exactly. *)
  let flats =
    Array.map (fun tr -> Trajectory.flatten tr ~horizon:time_horizon) trajectories
  in
  let k = Array.length trajectories in
  let times = Array.make k infinity in
  let out = [| neg_infinity; 0.; 0. |] in
  compiled_scan ~flats ~depths ~times ~f ~k ~horizon:time_horizon ~out;
  if Float.equal out.(0) neg_infinity then
    Search_error.invalid ~where:"Adversary.worst_case" "empty candidate set";
  let witness = World.point world ~ray:(int_of_float out.(1)) ~dist:out.(2) in
  outcome ~ratio:out.(0) ~witness ~candidates_scanned:scanned

let reference trajectories ~f ?eps ?(ratio_cap = default_ratio_cap) ~n () =
  if Array.length trajectories = 0 then
    Search_error.invalid ~where:"Adversary.reference" "no robots";
  let time_horizon = ratio_cap *. n in
  let targets = candidate_targets trajectories ?eps ~n ~time_horizon () in
  let sup =
    List.fold_left
      (fun sup target ->
        Stats.sup_add sup ~key:target
          ~value:(Engine.detection_ratio trajectories ~f ~target ~time_horizon))
      Stats.sup_empty targets
  in
  match Stats.sup_witness sup with
  | None ->
      Search_error.invalid ~where:"Adversary.reference" "empty candidate set"
  | Some witness ->
      outcome ~ratio:(Stats.sup_value sup) ~witness
        ~candidates_scanned:(List.length targets)
