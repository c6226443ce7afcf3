module Prng = Search_numerics.Prng

let prngs ~root ~n =
  if n < 0 then invalid_arg "Shard.prngs: need n >= 0";
  let spine = ref root in
  Array.init n (fun _ ->
      let leaf, rest = Prng.split !spine in
      spine := rest;
      leaf)

let[@pool_entry] sharded_map pool ~root ~f xs =
  let gs = prngs ~root ~n:(List.length xs) in
  Par.parallel_mapi pool ~f:(fun i x -> f ~prng:gs.(i) x) xs

let grid2 xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs
