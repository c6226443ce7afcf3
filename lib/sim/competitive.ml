type profile_point = { dist : float; ray : int; ratio : float }

let profile trajectories ~f ?(ratio_cap = Adversary.default_ratio_cap) ~n
    ~samples () =
  if samples < 2 then invalid_arg "Competitive.profile: need samples >= 2";
  if n <= 1. then invalid_arg "Competitive.profile: need n > 1";
  let world = Trajectory.world trajectories.(0) in
  let m = World.arity world in
  let time_horizon = ratio_cap *. n in
  let log_n = log n in
  let points = ref [] in
  for i = samples - 1 downto 0 do
    let dist = exp (log_n *. float_of_int i /. float_of_int (samples - 1)) in
    for ray = m - 1 downto 0 do
      let target = World.point world ~ray ~dist in
      let ratio = Engine.detection_ratio trajectories ~f ~target ~time_horizon in
      points := { dist; ray; ratio } :: !points
    done
  done;
  !points

let horizon_convergence ~make_trajectories ~f ?ratio_cap ~ns () =
  List.map
    (fun n ->
      let trajectories = make_trajectories () in
      let outcome = Adversary.worst_case trajectories ~f ?ratio_cap ~n () in
      (n, outcome.Adversary.ratio))
    ns
