module Sweep = Search_numerics.Sweep
module Mray = Search_strategy.Mray_exponential
module Turning = Search_strategy.Turning
module Params = Search_bounds.Params

let mu_of_lambda lambda =
  if not (lambda > 1.) then invalid_arg "Orc: need lambda > 1";
  (lambda -. 1.) /. 2.

module Interval1 = Search_numerics.Interval1

(* Flat-array twin of [Orc_round.cover_intervals_within]: identical
   control flow and arithmetic order, so the collected intervals are
   bit-identical to the reference's. *)
let[@hot] cover_intervals_within_compiled turns ~mu ~within:(lo, hi)
    ~max_rounds () =
  let c = Turning.compile turns in
  let rec collect i acc =
    if i > max_rounds then List.rev acc
    else
      let t'' = Turning.compiled_partial_sum c (i - 1) /. mu in
      if t'' > hi then List.rev acc
      else
        let ti = Turning.compiled_get c i in
        if t'' <= ti && ti >= lo then
          collect (i + 1) ((i, Interval1.closed t'' ti) :: acc)
        else collect (i + 1) acc
  in
  collect 1 []

let cover_intervals_within turns ~lambda ~within =
  cover_intervals_within_compiled turns ~mu:(mu_of_lambda lambda) ~within
    ~max_rounds:1_000_000 ()

let group_intervals turns_array ~lambda ~within =
  Array.to_list turns_array
  |> List.concat_map (fun turns ->
         cover_intervals_within turns ~lambda ~within |> List.map snd)

let check turns_array ~demand ~lambda ~n =
  if n < 1. then invalid_arg "Orc.check: need n >= 1";
  let ivs = group_intervals turns_array ~lambda ~within:(1., n) in
  Sweep.check ~demand ~within:(1., n) ivs

let max_covered turns_array ~demand ~lambda ~n =
  match check turns_array ~demand ~lambda ~n with
  | Sweep.Covered -> n
  | Sweep.Gap { from_; _ } -> Float.max 1. from_

let of_mray strat ~robot =
  let p = Mray.params strat in
  let k = p.Params.k in
  if robot < 0 || robot >= k then invalid_arg "Orc.of_mray: robot out of range";
  (* pass index l starts at the strategy's l_min; depths are increasing in l *)
  let itin = Mray.itinerary strat ~robot in
  Turning.of_fun (fun i ->
      let wp = Search_sim.Itinerary.waypoint itin ((2 * i) - 1) in
      wp.Search_sim.World.dist)

let of_mray_group strat =
  let p = Mray.params strat in
  Array.init p.Params.k (fun robot -> of_mray strat ~robot)
