module Params = Search_bounds.Params
module Assigned = Search_covering.Assigned
module E = Search_numerics.Search_error

type fault_kind = Crash | Byzantine

type t = { params : Params.t; fault_kind : fault_kind; horizon : float }

let create ~where ~fault_kind ~horizon ~m ~k ~f =
  if not (Float.is_finite horizon && horizon >= 1.) then
    E.invalid ~where "need a finite horizon n >= 1";
  { params = Params.make ~m ~k ~f; fault_kind; horizon }

let make ?(fault_kind = Crash) ?(horizon = 1e4) ~m ~k ~f () =
  create ~where:"Problem.make" ~fault_kind ~horizon ~m ~k ~f

let line ?fault_kind ?horizon ~k ~f () = make ?fault_kind ?horizon ~m:2 ~k ~f ()

let regime t = Params.regime t.params

let searching ~where ~m ~k ~f ~horizon =
  let t = create ~where ~fault_kind:Crash ~horizon ~m ~k ~f in
  match regime t with
  | Params.Searching -> t
  | Params.Ratio_one | Params.Unsolvable ->
      E.raise_
        (E.Regime_violation
           { m; k; f; what = where ^ " requires the searching regime" })

(* the coverage kernels need lambda > 1; nan fails every comparison *)
let check_lambda ~where lambda =
  if not (Float.is_finite lambda && lambda > 1.) then
    E.invalid ~where "need a finite lambda > 1"

let check_samples ~where samples =
  if samples < 2 then E.invalid ~where "need samples >= 2"

let covering t =
  if t.params.Params.m = 2 then (Assigned.Line_symmetric, Params.s t.params)
  else (Assigned.Orc_setting, Params.q t.params)

let bound t = Search_bounds.Formulas.of_params t.params

let pp ppf t =
  let kind = match t.fault_kind with Crash -> "crash" | Byzantine -> "byzantine" in
  Format.fprintf ppf "%a %s faults, horizon %g" Params.pp t.params kind
    t.horizon
