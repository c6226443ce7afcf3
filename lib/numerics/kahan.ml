type t = { total : float; compensation : float }

let zero = { total = 0.; compensation = 0. }

(* Neumaier's variant: the compensation also captures the case where the
   incoming term is larger in magnitude than the running total. *)
let add { total; compensation } x =
  let t = total +. x in
  let c =
    if Float.abs total >= Float.abs x then compensation +. ((total -. t) +. x)
    else compensation +. ((x -. t) +. total)
  in
  { total = t; compensation = c }

let value { total; compensation } = total +. compensation
