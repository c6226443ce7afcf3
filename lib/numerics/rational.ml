type t = { num : int; den : int }

exception Overflow

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Overflow-checked product: detect by the inverse operation. *)
let mul_exn a b =
  if a = 0 || b = 0 then 0
  else
    let c = a * b in
    if not (Int.equal (c / b) a) then raise Overflow else c

(* [num/den] in lowest terms; every caller passes [den > 0]. *)
let make num den =
  let g = gcd num den in
  { num = num / g; den = den / g }

let num t = t.num
let den t = t.den
let to_float a = float_of_int a.num /. float_of_int a.den

let approximations_above ~target ~count =
  if target <= 1. then invalid_arg "Rational.approximations_above";
  (* grow the denominator geometrically, keeping only approximants that
     strictly improve; when the target is itself rational the sequence
     reaches it exactly and stops improving — return what we have *)
  let rec build k acc got guard =
    (* stop before the denominator outruns float precision *)
    if got >= count || guard > 40 then List.rev acc
    else
      let q = int_of_float (ceil (target *. float_of_int k)) in
      let q = Stdlib.max q (k + 1) in
      let r = make q k in
      let improves =
        match acc with
        | [] -> true
        | prev :: _ ->
            (* r < prev, cross-multiplied *)
            mul_exn r.num prev.den < mul_exn prev.num r.den
      in
      if improves then build (k * 2) (r :: acc) (got + 1) (guard + 1)
      else build (k * 2) acc got (guard + 1)
  in
  build 2 [] 0 0

let pp ppf t =
  if t.den = 1 then Format.fprintf ppf "%d" t.num
  else Format.fprintf ppf "%d/%d" t.num t.den
