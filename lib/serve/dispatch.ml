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

let searching_or_violation ~where ~m ~k ~f =
  let p = FS.Params.make ~m ~k ~f in
  match FS.Params.regime p with
  | FS.Params.Searching -> p
  | FS.Params.Ratio_one | FS.Params.Unsolvable ->
      E.raise_
        (E.Regime_violation
           { m; k; f; what = where ^ " requires the searching regime" })

let eval_certify meter ~m ~k ~f ~n ~lambda =
  if not (Float.is_finite n && n >= 1.) then
    E.invalid ~where:"serve/certify" "need a finite horizon n >= 1";
  (* the coverage kernels need lambda > 1; refuse the rest here, at the
     boundary, as the CLI does *)
  if not (Float.is_finite lambda && lambda > 1.) then
    E.invalid ~where:"serve/certify" "need a finite lambda > 1";
  let p = searching_or_violation ~where:"serve/certify" ~m ~k ~f in
  let q = FS.Params.q p in
  Budget.step meter;
  let problem = FS.Problem.make ~m ~k ~f ~horizon:n () in
  let solution = FS.Solve.solve problem in
  let turns = Option.get (FS.Solve.orc_turns solution) in
  let bound = FS.Problem.bound problem in
  Budget.step meter;
  let verdict =
    if m = 2 then FS.Certificate.check_line ~turns ~f ~lambda ~n ()
    else FS.Certificate.check_orc ~turns ~demand:q ~lambda ~n ()
  in
  let tag =
    match verdict with
    | FS.Certificate.Refuted_gap _ -> "refuted-gap"
    | FS.Certificate.Refuted_potential _ -> "refuted-potential"
    | FS.Certificate.Not_refuted _ -> "not-refuted"
    | FS.Certificate.Inconclusive _ -> "inconclusive"
  in
  let detail = Format.asprintf "%a" FS.Certificate.pp_verdict verdict in
  Protocol.Certify_ok { verdict = tag; detail; bound }

(* Per-request sample caps.  The batch is awaited on the event-loop
   thread, so one unbounded request would stall every connection (and
   SIGTERM) until it finished; at the caps a request takes well under a
   second. *)
let max_simulate_samples = 100_000
let max_sweep_samples = 1_000

(* mirrors the CLI sweep's alpha grid around the optimal base, so a serve
   client and the [sweep] subcommand render identical rows *)
let eval_sweep meter ~m ~k ~f ~n ~samples =
  if samples < 2 then E.invalid ~where:"serve/sweep" "need samples >= 2";
  if samples > max_sweep_samples then
    E.invalid ~where:"serve/sweep"
      (Printf.sprintf "need samples <= %d" max_sweep_samples);
  if not (Float.is_finite n && n >= 1.) then
    E.invalid ~where:"serve/sweep" "need a finite horizon n >= 1";
  let p = searching_or_violation ~where:"serve/sweep" ~m ~k ~f in
  let q = FS.Params.q p in
  let a_star = FS.Formulas.alpha_star ~q ~k in
  let rows =
    List.filter_map
      (fun i ->
        Budget.step meter;
        let t = float_of_int i /. float_of_int (samples - 1) in
        let alpha = a_star *. (0.7 +. (0.8 *. t)) in
        if alpha > 1.001 then begin
          let problem = FS.Problem.make ~m ~k ~f ~horizon:n () in
          let solution = FS.Solve.solve ~alpha problem in
          let outcome =
            FS.Adversary.worst_case (FS.Solve.trajectories solution) ~f ~n ()
          in
          Some
            [
              FS.Table.cell_f ~decimals:4 alpha;
              FS.Table.cell_f ~decimals:4 solution.FS.Solve.designed_ratio;
              FS.Table.cell_f ~decimals:4 outcome.FS.Adversary.ratio;
            ]
        end
        else None)
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
