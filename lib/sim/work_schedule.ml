module Lazy_seq = Search_numerics.Lazy_seq
module Stats = Search_numerics.Stats
module E = Search_numerics.Search_error

type move = { robot : int; target : World.point }

type t = {
  world : World.t;
  robots : int;
  moves : move Lazy_seq.t;
}

let make ~world ~robots moves =
  if robots < 1 then invalid_arg "Work_schedule.make: need robots >= 1";
  let check i =
    let mv = moves i in
    if mv.robot < 0 || mv.robot >= robots then
      invalid_arg "Work_schedule.make: robot index out of range";
    (* revalidate the point against the world *)
    {
      mv with
      target = World.point world ~ray:mv.target.World.ray ~dist:mv.target.World.dist;
    }
  in
  { world; robots; moves = Lazy_seq.of_fun check }

let move t i = Lazy_seq.get t.moves i

(* Does moving from [from_] to [to_] pass through [target], and after how
   much travel?  The path is direct on a shared ray, otherwise through
   the origin. *)
let passage ~from_ ~to_ ~target =
  let same_ray =
    World.is_origin from_ || World.is_origin to_
    || Int.equal from_.World.ray to_.World.ray
  in
  if same_ray then begin
    let ray =
      if World.is_origin from_ then to_.World.ray else from_.World.ray
    in
    if (not (Int.equal target.World.ray ray)) && not (World.is_origin target)
    then None
    else
      let d = target.World.dist in
      let lo = Float.min from_.World.dist to_.World.dist in
      let hi = Float.max from_.World.dist to_.World.dist in
      if d < lo || d > hi then None
      else Some (Float.abs (d -. from_.World.dist))
  end
  else begin
    (* inbound on from_.ray then outbound on to_.ray *)
    let d = target.World.dist in
    if (Int.equal target.World.ray from_.World.ray || World.is_origin target)
       && d <= from_.World.dist
    then Some (from_.World.dist -. d)
    else if Int.equal target.World.ray to_.World.ray && d <= to_.World.dist
    then
      Some (from_.World.dist +. d)
    else None
  end

let fold_moves ?(max_moves = 1_000_000) t ~continue ~f init =
  let positions = Array.make t.robots World.origin in
  let rec loop i acc =
    if i > max_moves then
      E.raise_
        (E.Non_convergence
           {
             where = "Work_schedule";
             steps = max_moves;
             detail = Printf.sprintf "exceeded %d moves" max_moves;
           })
    else
      let mv = move t i in
      let from_ = positions.(mv.robot) in
      match continue acc from_ mv with
      | false -> acc
      | true ->
          let acc = f acc ~from_ ~mv in
          positions.(mv.robot) <- mv.target;
          loop (i + 1) acc
  in
  loop 1 init

let work_to_visit ?max_moves t ~target ~work_budget =
  let result = ref None in
  let total =
    try
      fold_moves ?max_moves t
        ~continue:(fun work _ _ -> !result = None && work <= work_budget)
        ~f:(fun work ~from_ ~mv ->
          (match passage ~from_ ~to_:mv.target ~target with
          | Some partial when work +. partial <= work_budget ->
              if !result = None then result := Some (work +. partial)
          | Some _ | None -> ());
          work +. World.travel_distance from_ mv.target)
        0.
    with E.Error (E.Non_convergence _) -> work_budget +. 1.
  in
  ignore total;
  !result

let move_endpoints ?max_moves t ~work_budget =
  let acc =
    fold_moves ?max_moves t
      ~continue:(fun (work, _) _ _ -> work <= work_budget)
      ~f:(fun (work, eps) ~from_ ~mv ->
        ( work +. World.travel_distance from_ mv.target,
          (mv.target.World.ray, mv.target.World.dist) :: eps ))
      (0., [])
  in
  List.rev (snd acc)

type outcome = { ratio : float; witness : World.point }

let worst_ratio ?(eps = 1e-7) ?(ratio_cap = 1024.) t ~n () =
  if n < 1. then invalid_arg "Work_schedule.worst_ratio: need n >= 1";
  let budget = ratio_cap *. n in
  let endpoints = move_endpoints t ~work_budget:budget in
  let candidates = ref [] in
  let add ray dist =
    if dist >= 1. && dist <= n then
      candidates := World.point t.world ~ray ~dist :: !candidates
  in
  for ray = 0 to World.arity t.world - 1 do
    add ray 1.;
    add ray n
  done;
  List.iter
    (fun (ray, d) ->
      add ray d;
      add ray (d *. (1. -. eps));
      add ray (d *. (1. +. eps)))
    endpoints;
  let sup =
    List.fold_left
      (fun acc target ->
        let ratio =
          match
            work_to_visit t ~target
              ~work_budget:(ratio_cap *. target.World.dist)
          with
          | Some w -> w /. target.World.dist
          | None -> infinity
        in
        Stats.sup_add acc ~key:target ~value:ratio)
      Stats.sup_empty !candidates
  in
  match Stats.sup_witness sup with
  | None -> invalid_arg "Work_schedule.worst_ratio: no candidates"
  | Some witness -> { ratio = Stats.sup_value sup; witness }

let kmsy ?(alpha = 2.) ~m ~k () =
  if not (1 <= k && k <= m) then invalid_arg "Work_schedule.kmsy: need 1 <= k <= m";
  if alpha <= 1. then invalid_arg "Work_schedule.kmsy: need alpha > 1";
  let world = World.rays m in
  let scale = alpha ** float_of_int (-2 * m) in
  let moves i =
    let p = i - 1 in
    let ray = p mod m in
    let robot = if ray <= k - 2 then ray else k - 1 in
    { robot; target = World.point world ~ray ~dist:(scale *. (alpha ** float_of_int p)) }
  in
  make ~world ~robots:k moves

let parallel_charged trajectories ~f ~n =
  let out = Adversary.worst_case trajectories ~f ~n () in
  float_of_int (Array.length trajectories) *. out.Adversary.ratio
