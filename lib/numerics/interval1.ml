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

let length { lo; hi; _ } = hi -. lo
let is_empty t = match t.lo_kind with Closed -> false | Open -> t.lo >= t.hi

let intersects a b =
  (* share a point iff each starts before the other ends (kind-aware) *)
  let starts_before_end x b' =
    match x.lo_kind with Closed -> x.lo <= b'.hi | Open -> x.lo < b'.hi
  in
  starts_before_end a b && starts_before_end b a

let subset a b =
  a.hi <= b.hi
  &&
  match (a.lo_kind, b.lo_kind) with
  | Closed, Closed | Open, Open -> a.lo >= b.lo
  | Closed, Open -> a.lo > b.lo
  | Open, Closed -> a.lo >= b.lo

let truncate_left t x =
  if x >= t.hi then None
  else if x < t.lo || (Float.equal x t.lo && t.lo_kind = Open) then Some t
  else Some { lo = x; lo_kind = Open; hi = t.hi }

let compare_by_left a b =
  let c = Float.compare a.lo b.lo in
  if c <> 0 then c
  else
    let kind_rank = function Closed -> 0 | Open -> 1 in
    let c = Int.compare (kind_rank a.lo_kind) (kind_rank b.lo_kind) in
    if c <> 0 then c else Float.compare a.hi b.hi
