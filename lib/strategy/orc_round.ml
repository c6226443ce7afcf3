module Interval1 = Search_numerics.Interval1

let visit_time turns ~i ~x =
  if x < 0. then invalid_arg "Orc_round.visit_time: need x >= 0";
  if x > Turning.get turns i then None
  else Some ((2. *. Turning.partial_sum turns (i - 1)) +. x)

let cover_threshold turns ~mu ~i =
  if mu <= 0. then invalid_arg "Orc_round.cover_threshold: need mu > 0";
  Turning.partial_sum turns (i - 1) /. mu

let round_cover turns ~mu ~i =
  let t'' = cover_threshold turns ~mu ~i in
  let ti = Turning.get turns i in
  if t'' <= ti then Some (Interval1.closed t'' ti) else None

let cover_intervals turns ~mu ~up_to =
  let rec collect i acc =
    if i > up_to then List.rev acc
    else
      match round_cover turns ~mu ~i with
      | Some iv -> collect (i + 1) ((i, iv) :: acc)
      | None -> collect (i + 1) acc
  in
  collect 1 []

let cover_intervals_within turns ~mu ~within:(lo, hi) ?(max_rounds = 1_000_000)
    () =
  let rec collect i acc =
    if i > max_rounds then List.rev acc
    else
      let t'' = cover_threshold turns ~mu ~i in
      if t'' > hi then List.rev acc
      else
        let ti = Turning.get turns i in
        if t'' <= ti && ti >= lo then
          collect (i + 1) ((i, Interval1.closed t'' ti) :: acc)
        else collect (i + 1) acc
  in
  collect 1 []

let itinerary ?label ~world ~ray turns =
  Search_sim.Itinerary.of_excursions ?label ~world (fun i ->
      (ray, Turning.get turns i))
