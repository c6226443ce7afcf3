type t = { m : int }

let rays m =
  if m < 1 then invalid_arg "World.rays: need m >= 1";
  { m }

let line = rays 2
let arity t = t.m

type point = { ray : int; dist : float }

let point t ~ray ~dist =
  if ray < 0 || ray >= t.m then
    invalid_arg (Printf.sprintf "World.point: ray %d outside [0, %d)" ray t.m);
  if dist < 0. || Float.is_nan dist then
    invalid_arg "World.point: need dist >= 0";
  { ray; dist }

let origin = { ray = 0; dist = 0. }
let is_origin p = Float.equal p.dist 0.
let equal_point a b =
  (is_origin a && is_origin b)
  || (Int.equal a.ray b.ray && Float.equal a.dist b.dist)

let travel_distance a b =
  if Int.equal a.ray b.ray then Float.abs (a.dist -. b.dist)
  else if is_origin a then b.dist
  else if is_origin b then a.dist
  else a.dist +. b.dist

let line_coordinate p =
  match p.ray with
  | 0 -> p.dist
  | 1 -> -.p.dist
  | r -> invalid_arg (Printf.sprintf "World.line_coordinate: ray %d" r)

let pp_point ppf p =
  if is_origin p then Format.pp_print_string ppf "origin"
  else Format.fprintf ppf "ray %d @@ %g" p.ray p.dist
