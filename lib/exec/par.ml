let chunked size xs =
  if size < 1 then invalid_arg "Par.parallel_map: need chunk >= 1";
  let rec take n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (n - 1) (x :: acc) rest
  in
  let rec go = function
    | [] -> []
    | xs ->
        let c, rest = take size [] xs in
        c :: go rest
  in
  go xs

let[@pool_entry] map_plain pool ~f xs =
  let promises = List.map (fun x -> Pool.async pool (fun () -> f x)) xs in
  List.map Pool.await promises

let[@pool_entry] parallel_map ?(chunk = 1) pool ~f xs =
  if chunk = 1 then map_plain pool ~f xs
  else List.concat (map_plain pool ~f:(List.map f) (chunked chunk xs))

let[@pool_entry] parallel_mapi pool ~f xs =
  List.mapi (fun i x -> (i, x)) xs
  |> map_plain pool ~f:(fun (i, x) -> f i x)
