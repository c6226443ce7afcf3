type bound_kind = Closed | Open
type t = { lo : float; lo_kind : bound_kind; hi : float }

let make lo_kind lo hi =
  (match lo_kind with
  | Closed -> if lo > hi then invalid_arg "Interval1.make: lo > hi"
  | Open -> if lo >= hi then invalid_arg "Interval1.make: lo >= hi (open)");
  { lo; lo_kind; hi }

let closed lo hi = make Closed lo hi
let left_open lo hi = make Open lo hi

let mem x { lo; lo_kind; hi } =
  x <= hi && (match lo_kind with Closed -> x >= lo | Open -> x > lo)

let compare_by_left a b =
  let c = Float.compare a.lo b.lo in
  if c <> 0 then c
  else
    let kind_rank = function Closed -> 0 | Open -> 1 in
    let c = Int.compare (kind_rank a.lo_kind) (kind_rank b.lo_kind) in
    if c <> 0 then c else Float.compare a.hi b.hi
