module Interval1 = Search_numerics.Interval1
module Sweep = Search_numerics.Sweep
module Turning = Search_strategy.Turning

let mu_of_lambda lambda =
  if not (lambda > 1.) then invalid_arg "Symmetric: need lambda > 1";
  (lambda -. 1.) /. 2.

(* [Line_zigzag.cover_intervals_within] through the flat-array view:
   each round costs three array reads instead of mutex+hashtable probes.
   The arithmetic (including the Kahan partial sums) is replayed in the
   identical order, so the collected intervals are bit-identical to the
   reference's. *)
let[@hot] cover_intervals_within_compiled turns ~lambda ~within:(lo, hi)
    ~max_rounds
    () =
  let mu = mu_of_lambda lambda in
  let c = Turning.compile turns in
  let rec collect i acc =
    if i > max_rounds then List.rev acc
    else
      let prev = if i = 1 then 0. else Turning.compiled_get c (i - 1) in
      let sum_i = Turning.compiled_partial_sum c i in
      let t'' = Float.max (sum_i /. mu) prev in
      if sum_i /. mu > hi then List.rev acc
      else
        let ti = Turning.compiled_get c i in
        if t'' <= ti && ti >= lo && t'' <= hi then
          collect (i + 1) ((i, Interval1.closed t'' ti) :: acc)
        else collect (i + 1) acc
  in
  collect 1 []

let cover_intervals_within turns ~lambda ~within =
  cover_intervals_within_compiled turns ~lambda ~within ~max_rounds:1_000_000 ()

let group_intervals turns_array ~lambda ~within =
  Array.to_list turns_array
  |> List.concat_map (fun turns ->
         cover_intervals_within turns ~lambda ~within |> List.map snd)

let check turns_array ~demand ~lambda ~n =
  if n < 1. then invalid_arg "Symmetric.check: need n >= 1";
  let ivs = group_intervals turns_array ~lambda ~within:(1., n) in
  Sweep.check ~demand ~within:(1., n) ivs

let max_covered turns_array ~demand ~lambda ~n =
  match check turns_array ~demand ~lambda ~n with
  | Sweep.Covered -> n
  | Sweep.Gap { from_; _ } ->
      (* the gap's left end bounds the covered prefix: everything strictly
         before it is covered *)
      Float.max 1. from_
