(* Replays of the traced run.  Each times calls into one layer's
   public functions on the workload's own requests, recording spans in
   the benchmark's process; nothing inside lib/ is instrumented. *)

module FS = Faulty_search
module P = Search_serve.Protocol

(* ------------------------------------------------------------------ *)
(* serve.Protocol                                                      *)

type protocol = { decode_us : float; encode_us : float; frame_bytes : float }

(* Decode the exact request frames of [ids] through one incremental
   decoder, and encode the reference response of each. *)
let protocol spans (b : Loadgen.book) ~resps ids =
  let frames = Array.map (Loadgen.frame b) ids in
  let dec = P.Frame.Decoder.create () in
  Array.iteri
    (fun i f ->
      Spans.span spans ~name:"protocol.decode" ~req:ids.(i) (fun _ ->
          P.Frame.Decoder.feed_string dec f;
          match P.Frame.Decoder.next dec with
          | `Frame payload -> (
              match P.decode_request payload with
              | Ok _ -> ()
              | Error (_, msg) -> failwith ("replayed frame does not decode: " ^ msg))
          | `Awaiting | `Corrupt _ -> failwith "replayed frame is not whole"))
    frames;
  let bytes = ref 0 in
  Array.iteri
    (fun i id ->
      let out =
        Spans.span spans ~name:"protocol.encode" ~req:id (fun _ ->
            P.Frame.encode (P.encode_response ~id resps.(b.Loadgen.reqs.(id))))
      in
      bytes := !bytes + String.length out + String.length frames.(i))
    ids;
  let n = float_of_int (max 1 (Array.length ids)) in
  {
    decode_us = Spans.mean_self_us spans "protocol.decode";
    encode_us = Spans.mean_self_us spans "protocol.encode";
    frame_bytes = float_of_int !bytes /. n;
  }

(* ------------------------------------------------------------------ *)
(* kernels, called directly (the work Dispatch does per request)      *)

let direct spans ~parent ~req = function
  | P.Bound { m; k; f } ->
      let p = FS.Params.make ~m ~k ~f in
      ignore (FS.Formulas.of_params p : float)
  | P.Certify { m; k; f; n; lambda } ->
      let problem = FS.Problem.make ~m ~k ~f ~horizon:n () in
      let turns = Option.get (FS.Solve.orc_turns (FS.Solve.solve problem)) in
      let q = FS.Params.q problem.FS.Problem.params in
      Spans.span spans ~name:"covering.certificate" ~parent ~req (fun _ ->
          ignore
            (if m = 2 then FS.Certificate.check_line ~turns ~f ~lambda ~n ()
             else FS.Certificate.check_orc ~turns ~demand:q ~lambda ~n ()))
  | P.Simulate { beta; x; samples; seed } ->
      Spans.span spans ~name:"strategy.randomized" ~parent ~req (fun _ ->
          ignore
            (FS.Randomized.expected_ratio_at ~beta ~x ~samples ~prng:(FS.Prng.make ~seed)));
      Spans.add_count spans "strategy.randomized.samples" samples
  | P.Sweep _ | P.Stats -> ()

type gc = { minor_words_per_req : float; major_per_1k : float }

(* Gc deltas around [f], per item. *)
let gc_around n f =
  let g0 = Gc.quick_stat () in
  f ();
  let g1 = Gc.quick_stat () in
  let n = float_of_int (max 1 n) in
  {
    minor_words_per_req = (g1.Gc.minor_words -. g0.Gc.minor_words) /. n;
    major_per_1k = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) *. 1000. /. n;
  }

(* ------------------------------------------------------------------ *)
(* serve.Dispatch and exec.Pool / Supervise                            *)

type dispatch = {
  batch_us : float;
  overhead_us : float;
  busy_ratio : float;
  gc : gc;
}

(* Replay [reqs] through [Dispatch.handle_batch] in batches of [batch]
   on a fresh [jobs]-domain pool, then call each request's kernels
   directly; the difference is what batching, Supervise and the pool
   add. *)
let dispatch spans ~jobs ~cache_cap ~batch reqs =
  let n = Array.length reqs in
  let batches = ref 0 in
  FS.Pool.with_pool ~jobs (fun pool ->
      let d = Search_serve.Dispatch.create ~pool ~cache_capacity:cache_cap () in
      let i = ref 0 in
      while !i < n do
        let len = min batch (n - !i) in
        let items = List.init len (fun j -> ((), !i + j, reqs.(!i + j))) in
        Spans.span spans ~name:"dispatch.batch" (fun _ ->
            ignore (Search_serve.Dispatch.handle_batch d items));
        incr batches;
        i := !i + len
      done);
  let gc =
    gc_around n (fun () ->
        Array.iteri
          (fun req r ->
            Spans.span spans ~name:"kernel.request" ~req (fun id -> direct spans ~parent:id ~req r))
          reqs)
  in
  let batch_s = Spans.total spans "dispatch.batch" and kernel_s = Spans.total spans "kernel.request" in
  let nb = float_of_int (max 1 !batches) in
  {
    batch_us = batch_s /. nb *. 1e6;
    overhead_us = (batch_s -. kernel_s) /. nb *. 1e6;
    busy_ratio = (if batch_s > 0. then kernel_s /. (batch_s *. float_of_int jobs) else 0.);
    gc;
  }

(* ------------------------------------------------------------------ *)
(* offline: Report.build and what it calls                            *)

(* Direct calls for one instance: the whole report, then the kernels
   it runs (exact and bracketing adversary, certificate at 0.99 of the
   bound, the λ-grid certificates). *)
let report_instance spans ~req ((m, k, f, n, _) as i) =
  Spans.span spans ~name:"instance" ~req (fun parent ->
      let problem = Offline.problem i in
      ignore
        (Spans.span spans ~name:"core.report" ~parent ~req (fun _ ->
             FS.Report.to_markdown (FS.Report.build problem)));
      let sol = FS.Solve.solve problem in
      let tr = FS.Solve.trajectories sol in
      let turns = Option.get (FS.Solve.orc_turns sol) in
      ignore
        (Spans.span spans ~name:"sim.exact_adversary" ~parent ~req (fun _ ->
             FS.Exact_adversary.worst_case tr ~f ~n ()));
      let o =
        Spans.span spans ~name:"sim.adversary" ~parent ~req (fun _ ->
            FS.Adversary.worst_case tr ~f ~n ())
      in
      Spans.add_count spans "sim.candidates_scanned" o.FS.Adversary.candidates_scanned;
      let lambda = 0.99 *. FS.Problem.bound problem in
      let q = FS.Params.q (FS.Params.make ~m ~k ~f) in
      Spans.span spans ~name:"covering.certificate" ~parent ~req (fun _ ->
          ignore
            (if m = 2 then FS.Certificate.check_line ~turns ~f ~lambda ~n ()
             else FS.Certificate.check_orc ~turns ~demand:q ~lambda ~n ()));
      ignore
        (Spans.span spans ~name:"covering.certificate_grid" ~parent ~req (fun _ ->
             Offline.verdicts i turns)))
