module E = Search_numerics.Search_error

type t = { m : int; k : int; f : int }

let make ~m ~k ~f =
  let reject what = E.raise_ (E.Regime_violation { m; k; f; what }) in
  if m < 2 then reject (Printf.sprintf "m = %d, need m >= 2" m);
  if k < 1 then reject (Printf.sprintf "k = %d, need k >= 1" k);
  if f < 0 || f > k then
    reject (Printf.sprintf "f = %d, need 0 <= f <= k = %d" f k);
  { m; k; f }

let line ~k ~f = make ~m:2 ~k ~f
let q t = t.m * (t.f + 1)
let s t = q t - t.k
let rho t = float_of_int (q t) /. float_of_int t.k

type regime = Unsolvable | Ratio_one | Searching

let regime t =
  if Int.equal t.f t.k then Unsolvable
  else if t.k >= q t then Ratio_one
  else Searching

let pp ppf t = Format.fprintf ppf "(m=%d, k=%d, f=%d)" t.m t.k t.f

let regime_to_string = function
  | Unsolvable -> "unsolvable"
  | Ratio_one -> "ratio-one"
  | Searching -> "searching"

let pp_regime ppf r = Format.pp_print_string ppf (regime_to_string r)
