(* Workload definitions.  Every input is a pure function of the seed; the
   daemon only ever sees the frames built from these requests. *)

module FS = Faulty_search
module P = Search_serve.Protocol

type serve = {
  jobs : int;  (** daemon --jobs (capped at nproc when run) *)
  conns : int;  (** generator connections (capped at nproc when run) *)
  window : int;  (** outstanding requests per connection, closed loop *)
  rate : float;  (** open-loop arrivals per second (Poisson) *)
  queue_cap : int;
  batch_cap : int;
  cache_cap : int;
  pool : P.request array;  (** distinct requests *)
  deck : int array;  (** copies of each pool entry in one round of the stream *)
}

type offline = {
  ojobs : int;
  grid : (int * int * int * float * float) array;  (** (m, k, f, n, lambda) *)
}

type kind = Serve of serve | Offline of offline

type t = { name : string; kind : kind }

(* Seed used when none is given, and the seed held out for checking
   claims made with the default one. *)
let default_seed = 1
let heldout_seed = 7

(* Deliberate damage that the correctness gate must catch: the reference
   of one request, or the request itself (an invalid instance is sent in
   its place while its valid reference is kept, so the answer is a
   [Failed] one). *)
type corruption = Intact | Bad_reference | Bad_request

(* m < 2: every operation answers it with [Failed] *)
let invalid_instance = (1, 1, 0)

let searching ~m ~k ~f =
  f < k && FS.Params.regime (FS.Params.make ~m ~k ~f) = FS.Params.Searching

(* Searching-regime instances with m <= mmax, k <= kmax. *)
let searching_instances ~mmax ~kmax =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun k ->
          List.filter_map
            (fun f -> if searching ~m ~k ~f then Some (m, k, f) else None)
            (List.init k Fun.id))
        (List.init kmax (fun i -> i + 1)))
    (List.init (mmax - 1) (fun i -> i + 2))
  |> Array.of_list

(* Pools are laid out on fixed grids: entry [j] of [n] takes the [j]-th
   cell of every dimension that sets its cost (cycled), so every seed's
   pool costs the same and the spread between seeds measures the system,
   not the draw.  A certificate's cost, for one, jumps where lambda crosses
   the bound.  The seed orders the request stream, seeds the simulations
   and jitters the cost-neutral values. *)
let cell arr j = arr.(j mod Array.length arr)

(* the midpoint of the [j]-th of [n] equal cells of [lo, hi] *)
let mid ~lo ~hi j n = lo +. ((hi -. lo) *. (float_of_int j +. 0.5) /. float_of_int n)

let draw n prng f =
  let prng = ref prng in
  let out =
    List.init n (fun j ->
        let v, p = f j !prng in
        prng := p;
        v)
  in
  (out, !prng)

(* a point in the [j]-th of [n] equal cells of [lo, hi] *)
let strat ~lo ~hi j n p =
  let u, p = FS.Prng.float p in
  (lo +. ((hi -. lo) *. (float_of_int j +. u) /. float_of_int n), p)

let bounds ~mmax ~kmax =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun k -> List.init k (fun f -> P.Bound { m; k; f }))
        (List.init kmax (fun i -> i + 1)))
    (List.init (mmax - 1) (fun i -> i + 2))

(* A serve-path mix, every request computed in microseconds: Bound over
   144 hot instances (cache hits), Bound over 128 cold ones (together more
   than the 256-entry cache holds, so the LRU evicts them), small line
   certificates and small Monte-Carlo simulations.  Time goes to the serve
   path; the kernels it does touch run briefly. *)
let serve_cached seed =
  let prng = FS.Prng.make ~seed in
  let hot = bounds ~mmax:5 ~kmax:8 in
  let cold =
    List.filteri (fun i _ -> i < 128)
      (List.filter (fun b -> not (List.mem b hot)) (bounds ~mmax:13 ~kmax:10))
  in
  let certs =
    List.init 16 (fun j -> P.Certify { m = 2; k = 3; f = 1; n = 200.; lambda = mid ~lo:4.0 ~hi:6.0 j 16 })
  in
  (* a simulation's cost grows with its samples and with log x / log beta *)
  let sims, _ =
    draw 16 prng (fun j p ->
        let sd, p = FS.Prng.int ~bound:1_000_000 p in
        ( P.Simulate
            {
              beta = mid ~lo:2.0 ~hi:5.0 j 16;
              x = mid ~lo:100. ~hi:1000. (j * 5 mod 16) 16;
              samples = 8;
              seed = sd;
            },
          p ))
  in
  let copies l n = Array.make (List.length l) n in
  {
    jobs = 1;
    conns = 1;
    window = 32;
    rate = 15000.;
    queue_cap = 64;
    batch_cap = 32;
    cache_cap = 256;
    pool = Array.of_list (hot @ cold @ certs @ sims);
    (* a round of 1136: 76% hot bounds, 11% cold bounds, 8% certificates,
       4% simulations *)
    deck = Array.concat [ copies hot 6; copies cold 1; copies certs 6; copies sims 3 ];
  }

(* A seeded (m, k, f, n, lambda) grid of 48 instances for the in-process
   report path. *)
let offline_report seed =
  let prng = FS.Prng.make ~seed in
  let inst = searching_instances ~mmax:4 ~kmax:5 in
  let ns = [| 300.; 1e3; 3e3 |] in
  let grid, _ =
    draw 48 prng (fun j p ->
        let m, k, f = cell inst j in
        let fr, p = strat ~lo:0.9 ~hi:1.1 j 48 p in
        let bound = FS.Formulas.of_params (FS.Params.make ~m ~k ~f) in
        ((m, k, f, cell ns (j / Array.length inst), fr *. bound), p))
  in
  { ojobs = 1; grid = Array.of_list grid }

let make name seed =
  match name with
  | "serve-cached" -> Some { name; kind = Serve (serve_cached seed) }
  | "offline-report" -> Some { name; kind = Offline (offline_report seed) }
  | _ -> None

(* [n] pool indices: rounds of the deck, each round in a seeded order,
   so each round holds the deck's exact mix. *)
let stream s prng n =
  let round = Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) s.deck)) in
  let len = Array.length round in
  let prng = ref prng in
  let out = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    for j = len - 1 downto 1 do
      let r, p = FS.Prng.int ~bound:(j + 1) !prng in
      prng := p;
      let t = round.(j) in
      round.(j) <- round.(r);
      round.(r) <- t
    done;
    Array.blit round 0 out !i (min len (n - !i));
    i := !i + len
  done;
  out

(* Poisson arrival offsets (seconds from phase start) at [rate]/s. *)
let arrivals ~rate prng n =
  let prng = ref prng and t = ref 0. in
  Array.init n (fun _ ->
      let u, p = FS.Prng.float !prng in
      prng := p;
      t := !t -. (log (1. -. u) /. rate);
      !t)
