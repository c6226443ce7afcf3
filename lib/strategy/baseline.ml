module Params = Search_bounds.Params
module World = Search_sim.World
module Itinerary = Search_sim.Itinerary

(* A robot that never turns: monotone waypoints along one ray.  Doubling
   depths keep the leg count logarithmic in the horizon. *)
let straight_out ~world ~ray ~label =
  Itinerary.make ~label ~world (fun i ->
      World.point world ~ray ~dist:(2. ** float_of_int i))

let partition params =
  let { Params.m; k; f } = params in
  if k < m * (f + 1) then
    invalid_arg "Baseline.partition: need k >= m(f+1) for the ratio-1 regime";
  let world = World.rays m in
  Array.init k (fun r ->
      let ray = if r < m * (f + 1) then r mod m else 0 in
      straight_out ~world ~ray ~label:(Printf.sprintf "straight-%d" r))

let replicated_doubling ~k =
  if k < 1 then invalid_arg "Baseline.replicated_doubling: need k >= 1";
  Array.init k (fun _ -> Cyclic.doubling_cow ())

let replicated_mray ~m ~k =
  if k < 1 then invalid_arg "Baseline.replicated_mray: need k >= 1";
  Array.init k (fun _ -> Cyclic.single_robot ~m ())
