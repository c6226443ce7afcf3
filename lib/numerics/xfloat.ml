let default_eps = 1e-9

let approx_eq ?(eps = default_eps) a b =
  if Float.equal a b then true
  else
    let scale = Float.max (Float.abs a) (Float.abs b) in
    if scale < eps then Float.abs (a -. b) <= eps
    else Float.abs (a -. b) <= eps *. scale

let is_finite x = Float.is_finite x

let log_pow b e =
  assert (b >= 0.);
  if Float.equal e 0. then 0. (* continuous extension: b^0 = 1, including 0^0 *)
  else e *. log b

let sum xs = List.fold_left ( +. ) 0. xs

(* [Printf]'s [%g] and [%.17g] end in this C primitive; calling it
   directly gives the same bytes without interpreting a format. *)
external format_float : string -> float -> string = "caml_format_float"

let to_string x =
  let short = format_float "%.6g" x in
  match float_of_string_opt short with
  | Some y when Float.equal y x -> short
  | Some _ | None -> format_float "%.17g" x
