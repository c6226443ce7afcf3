module Json = Search_numerics.Json
module P = Search_bounds.Params

type t = {
  id : int;
  m : int;
  k : int;
  f : int;
  horizon : float;
  alpha_scale : float;
  lambda_frac : float;
  targets : (int * float) list;
  turn_seed : int;
}

let validate t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if t.id < 0 then fail "id %d < 0" t.id
  else if t.m < 2 then fail "m %d < 2" t.m
  else if t.f < 0 then fail "f %d < 0" t.f
  else if t.k <= t.f then fail "k %d <= f %d (not searching)" t.k t.f
  else if t.k >= t.m * (t.f + 1) then
    fail "k %d >= m(f+1) = %d (not searching)" t.k (t.m * (t.f + 1))
  else if not (Float.is_finite t.horizon) || t.horizon < 2. then
    fail "horizon %g outside [2, inf)" t.horizon
  else if not (Float.is_finite t.alpha_scale) || t.alpha_scale < 1.
          || t.alpha_scale > 2. then
    fail "alpha_scale %g outside [1, 2]" t.alpha_scale
  else if not (Float.is_finite t.lambda_frac) || t.lambda_frac < 0.
          || t.lambda_frac > 1. then
    fail "lambda_frac %g outside [0, 1]" t.lambda_frac
  else if t.targets = [] then fail "no targets"
  else if t.turn_seed < 0 || t.turn_seed > 0x20000000000000 (* 2^53 *) then
    fail "turn_seed %d outside [0, 2^53] (must survive a JSON float)"
      t.turn_seed
  else
    let rec check_targets i = function
      | [] -> Ok ()
      | (ray, dist) :: rest ->
          if ray < 0 || ray >= t.m then fail "target %d: ray %d" i ray
          else if not (Float.is_finite dist) || dist < 1.
                  || dist > t.horizon then
            fail "target %d: dist %g outside [1, %g]" i dist t.horizon
          else check_targets (i + 1) rest
    in
    check_targets 0 t.targets

let valid t = Result.is_ok (validate t)
let params t = P.make ~m:t.m ~k:t.k ~f:t.f
let equal (a : t) b =
  Int.equal a.id b.id && Int.equal a.m b.m && Int.equal a.k b.k
  && Int.equal a.f b.f
  && Float.equal a.horizon b.horizon
  && Float.equal a.alpha_scale b.alpha_scale
  && Float.equal a.lambda_frac b.lambda_frac
  && List.equal
       (fun (r1, d1) (r2, d2) -> Int.equal r1 r2 && Float.equal d1 d2)
       a.targets b.targets
  && Int.equal a.turn_seed b.turn_seed

let to_json t =
  Json.Assoc
    [
      ("id", Json.Number (float_of_int t.id));
      ("m", Json.Number (float_of_int t.m));
      ("k", Json.Number (float_of_int t.k));
      ("f", Json.Number (float_of_int t.f));
      ("horizon", Json.Number t.horizon);
      ("alpha_scale", Json.Number t.alpha_scale);
      ("lambda_frac", Json.Number t.lambda_frac);
      ( "targets",
        Json.List
          (List.map
             (fun (ray, dist) ->
               Json.Assoc
                 [
                   ("ray", Json.Number (float_of_int ray));
                   ("dist", Json.Number dist);
                 ])
             t.targets) );
      ("turn_seed", Json.Number (float_of_int t.turn_seed));
    ]

let of_json json =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let* id = field "id" Json.to_int in
  let* m = field "m" Json.to_int in
  let* k = field "k" Json.to_int in
  let* f = field "f" Json.to_int in
  let* horizon = field "horizon" Json.to_float in
  let* alpha_scale = field "alpha_scale" Json.to_float in
  let* lambda_frac = field "lambda_frac" Json.to_float in
  let* turn_seed = field "turn_seed" Json.to_int in
  let* raw_targets = field "targets" Json.to_list in
  let* targets =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match
          ( Option.bind (Json.member "ray" item) Json.to_int,
            Option.bind (Json.member "dist" item) Json.to_float )
        with
        | Some ray, Some dist -> Ok ((ray, dist) :: acc)
        | _ -> Error "ill-formed target entry")
      (Ok []) raw_targets
  in
  let t =
    {
      id;
      m;
      k;
      f;
      horizon;
      alpha_scale;
      lambda_frac;
      targets = List.rev targets;
      turn_seed;
    }
  in
  let* () = validate t in
  Ok t
