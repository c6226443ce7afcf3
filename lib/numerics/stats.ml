type 'a sup = { sup_v : float; witness : 'a option }

let sup_empty = { sup_v = neg_infinity; witness = None }

let sup_add s ~key ~value =
  (* [value > sup_v] is false for NaN, so without the explicit check a
     NaN sample would vanish from the supremum — a poisoned detection
     ratio must surface, not be swallowed.  [infinity] stays a legal
     sample: it is the adversary's "target escaped" verdict. *)
  if Float.is_nan value then
    Search_error.raise_
      (Search_error.Non_convergence
         {
           where = "Stats.sup_add";
           steps = 0;
           detail = "supremum fed a NaN sample";
         })
  else if value > s.sup_v then { sup_v = value; witness = Some key }
  else s

let sup_value s = s.sup_v
let sup_witness s = s.witness

let nearest_rank sorted ~p =
  if p < 0. || p > 100. || Float.is_nan p then
    invalid_arg "Stats.nearest_rank: need 0 <= p <= 100";
  let n = Array.length sorted in
  if n = 0 then None
  else
    let r = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    Some sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (r - 1)))
