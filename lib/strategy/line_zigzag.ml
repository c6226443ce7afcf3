module Interval1 = Search_numerics.Interval1

(* Motion-level computation: walk the legs, record the first visit of +x
   and of -x, stop once both are known.  Leg i goes from the previous
   turning point (opposite side) to [sign_i t_i]; the visit of a copy of x
   on leg i happens when passing distance x on the destination side, or
   when passing -x ... both sides can be crossed within one leg (a leg
   crosses the origin).  We track positions explicitly. *)
let pair_visit_time ?(max_rounds = 100_000) turns ~x =
  if x <= 0. then invalid_arg "Line_zigzag.pair_visit_time: need x > 0";
  let rec walk i pos time seen_pos seen_neg =
    if i > max_rounds then None
    else
      let sign = if i mod 2 = 1 then 1. else -1. in
      let dest = sign *. Turning.get turns i in
      let lo = Float.min pos dest and hi = Float.max pos dest in
      let hit target =
        if target >= lo && target <= hi then
          Some (time +. Float.abs (target -. pos))
        else None
      in
      let seen_pos =
        match seen_pos with Some _ -> seen_pos | None -> hit x
      in
      let seen_neg =
        match seen_neg with Some _ -> seen_neg | None -> hit (-.x)
      in
      match (seen_pos, seen_neg) with
      | Some a, Some b -> Some (Float.max a b)
      | _ ->
          walk (i + 1) dest (time +. Float.abs (dest -. pos)) seen_pos seen_neg
  in
  walk 1 0. 0. None None

let pair_visit_time_formula turns ~x ~i =
  (2. *. Turning.partial_sum turns i) +. x

let cover_threshold turns ~mu ~i =
  if mu <= 0. then invalid_arg "Line_zigzag.cover_threshold: need mu > 0";
  let prev = if i = 1 then 0. else Turning.get turns (i - 1) in
  Float.max (Turning.partial_sum turns i /. mu) prev

let fruitful turns ~mu ~i = cover_threshold turns ~mu ~i <= Turning.get turns i

let cover_intervals turns ~mu ~up_to =
  let rec collect i acc =
    if i > up_to then List.rev acc
    else
      let t'' = cover_threshold turns ~mu ~i in
      let ti = Turning.get turns i in
      if t'' <= ti then collect (i + 1) ((i, Interval1.closed t'' ti) :: acc)
      else collect (i + 1) acc
  in
  collect 1 []

let cover_intervals_within turns ~mu ~within:(lo, hi) =
  let rec collect i acc =
    if i > 1_000_000 then List.rev acc
    else
      let t'' = cover_threshold turns ~mu ~i in
      (* thresholds are nondecreasing: once past the window, stop *)
      if Turning.partial_sum turns i /. mu > hi then List.rev acc
      else
        let ti = Turning.get turns i in
        if t'' <= ti && ti >= lo && t'' <= hi then
          collect (i + 1) ((i, Interval1.closed t'' ti) :: acc)
        else collect (i + 1) acc
  in
  collect 1 []

let lambda_covers ?max_rounds turns ~lambda ~x =
  if x < 1. then invalid_arg "Line_zigzag.lambda_covers: need x >= 1";
  match pair_visit_time ?max_rounds turns ~x with
  | None -> false
  | Some t -> t <= lambda *. x

let itinerary ?label turns =
  Search_sim.Itinerary.of_line_turns ?label (fun i -> Turning.get turns i)
