module FS = Faulty_search
module E = Search_numerics.Search_error
module Memo = Search_exec.Memo
module Pool = Search_exec.Pool
module Supervise = Search_exec.Supervise
module Budget = Search_resilience.Budget

type t = {
  pool : Pool.t;
  spec : Supervise.spec;
  cache : (int * int * int, Protocol.bound_payload) Memo.t;
  seq : int Atomic.t;  (** task-key sequence, never reused across batches *)
  served : int Atomic.t;
  sheds : int Atomic.t;
  batches : int Atomic.t;
  max_batch : int Atomic.t;
}

let create ~pool ?(cache_capacity = 256) ?(spec = Supervise.default) () =
  {
    pool;
    spec;
    cache = Memo.create ~capacity:cache_capacity ();
    seq = Atomic.make 0;
    served = Atomic.make 0;
    sheds = Atomic.make 0;
    batches = Atomic.make 0;
    max_batch = Atomic.make 0;
  }

let note_shed t = Atomic.incr t.sheds

let stats t =
  let c = Memo.stats t.cache in
  let p = Pool.stats t.pool in
  {
    Protocol.served = Atomic.get t.served;
    sheds = Atomic.get t.sheds;
    batches = Atomic.get t.batches;
    max_batch = Atomic.get t.max_batch;
    cache =
      {
        Protocol.hits = c.Memo.hits;
        misses = c.Memo.misses;
        evictions = c.Memo.evictions;
        entries = c.Memo.entries;
        capacity = c.Memo.capacity;
      };
    pool =
      {
        Protocol.jobs = p.Pool.jobs;
        submitted = p.Pool.submitted;
        settled = p.Pool.settled;
        pending = p.Pool.pending;
      };
  }

(* ------------------------------------------------------------------ *)
(* per-request evaluation (runs on pool workers)                      *)
(* ------------------------------------------------------------------ *)

(* Params.make raises the taxonomy directly (Regime_violation), which
   is exactly what the protocol error path wants. *)
let eval_bound t meter ~m ~k ~f =
  Budget.step meter;
  let payload =
    Memo.find_or_add t.cache (m, k, f) (fun () ->
        let p = FS.Params.make ~m ~k ~f in
        let regime = FS.Params.regime p in
        let alpha_star =
          match regime with
          | FS.Params.Searching ->
              Some (FS.Formulas.alpha_star ~q:(FS.Params.q p) ~k)
          | FS.Params.Ratio_one | FS.Params.Unsolvable -> None
        in
        Protocol.bound_payload ~bound:(FS.Formulas.of_params p)
          ~regime:(FS.Params.regime_to_string regime) ~alpha_star)
  in
  Protocol.Bound_ok payload

let eval_certify meter ~m ~k ~f ~n ~lambda =
  let where = "serve/certify" in
  let problem = FS.Problem.searching ~where ~m ~k ~f ~horizon:n in
  FS.Problem.check_lambda ~where lambda;
  Budget.step meter;
  let solution = FS.Solve.solve problem in
  Budget.step meter;
  let verdict = FS.Solve.certify solution ~lambda in
  let tag =
    match verdict with
    | FS.Certificate.Refuted_gap _ -> "refuted-gap"
    | FS.Certificate.Refuted_potential _ -> "refuted-potential"
    | FS.Certificate.Not_refuted _ -> "not-refuted"
    | FS.Certificate.Inconclusive _ -> "inconclusive"
  in
  let detail = Format.asprintf "%a" FS.Certificate.pp_verdict verdict in
  Protocol.Certify_ok
    { verdict = tag; detail; bound = FS.Problem.bound problem }

(* Per-request caps.  The batch is awaited on the event-loop thread, so
   one unbounded request would stall every connection (and SIGTERM)
   until it finished; at the caps a request takes well under a second
   (a sweep's cost grows with log n). *)
let max_simulate_samples = 100_000
let max_sweep_samples = 1_000
let max_sweep_horizon = 1e9

let eval_sweep meter ~m ~k ~f ~n ~samples =
  let where = "serve/sweep" in
  FS.Problem.check_samples ~where samples;
  if samples > max_sweep_samples then
    E.invalid ~where (Printf.sprintf "need samples <= %d" max_sweep_samples);
  let problem = FS.Problem.searching ~where ~m ~k ~f ~horizon:n in
  if n > max_sweep_horizon then
    E.invalid ~where (Printf.sprintf "need n <= %g" max_sweep_horizon);
  let rows =
    List.filter_map
      (fun i ->
        Budget.step meter;
        FS.Verify.sweep_row problem ~samples i)
      (List.init samples Fun.id)
  in
  Protocol.Sweep_ok { rows }

let eval_simulate meter ~beta ~x ~samples ~seed =
  if not (Float.is_finite beta && beta > 1.) then
    E.invalid ~where:"serve/simulate" "need a finite beta > 1";
  if not (Float.is_finite x) || Float.equal x 0. then
    E.invalid ~where:"serve/simulate" "need a finite non-zero target x";
  if samples < 1 then E.invalid ~where:"serve/simulate" "need samples >= 1";
  if samples > max_simulate_samples then
    E.invalid ~where:"serve/simulate"
      (Printf.sprintf "need samples <= %d" max_simulate_samples);
  Budget.step meter ~cost:samples;
  let prng = FS.Prng.make ~seed in
  let estimate = FS.Randomized.expected_ratio_at ~beta ~x ~samples ~prng in
  Protocol.Simulate_ok { estimate }

let eval t snapshot meter = function
  | Protocol.Bound { m; k; f } -> eval_bound t meter ~m ~k ~f
  | Protocol.Certify { m; k; f; n; lambda } ->
      eval_certify meter ~m ~k ~f ~n ~lambda
  | Protocol.Sweep { m; k; f; n; samples } ->
      eval_sweep meter ~m ~k ~f ~n ~samples
  | Protocol.Simulate { beta; x; samples; seed } ->
      eval_simulate meter ~beta ~x ~samples ~seed
  | Protocol.Stats -> Protocol.Stats_ok snapshot

(* ------------------------------------------------------------------ *)
(* batch dispatch (runs on the server's event-loop thread)            *)
(* ------------------------------------------------------------------ *)

let[@pool_entry] handle_batch t items =
  match items with
  | [] -> []
  | _ :: _ ->
      (* Stats requests in this batch see the state as of admission —
         a stable snapshot rather than a torn read mid-batch *)
      let snapshot = stats t in
      let n = List.length items in
      Atomic.incr t.batches;
      if n > Atomic.get t.max_batch then Atomic.set t.max_batch n;
      let base = Atomic.fetch_and_add t.seq n in
      let results =
        Supervise.map t.pool ~spec:t.spec
          ~task:(fun i _ -> Printf.sprintf "serve/req-%d" (base + i))
          ~f:(fun meter req -> eval t snapshot meter req)
          (List.map (fun (_tok, _id, req) -> req) items)
      in
      ignore (Atomic.fetch_and_add t.served n);
      List.map2
        (fun (tok, id, _req) result ->
          match result with
          | Ok resp -> (tok, id, resp)
          | Error err -> (tok, id, Protocol.Failed err))
        items results
