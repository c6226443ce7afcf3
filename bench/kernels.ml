(* Kernel microbenchmarks: the reference paths (the memoised turning
   sequences, [Adversary.reference]) vs the compiled flat-array paths
   production runs, plus the chunked sweep-grid dispatch.  Hand-rolled
   timing (median-free, quota-driven mean) so the CI job stays cheap
   and dependency-free; the Bechamel suite in main.ml remains the
   precise instrument.

   Writes BENCH_kernels.json (schema below) and appends one line to
   results/bench_history.jsonl via Metrics.append_history, so the perf
   trajectory of the kernels is tracked across commits alongside the
   experiment timings.

   Schema:
     { "bench": "kernels", "jobs": 1,
       "kernels": [ { "name": "...",
                      "baseline_ns": ..., "candidate_ns": ...,
                      "speedup": ... }, ... ],
       "gc": [ { "name": "...", "minor_words_per_op": ... }, ... ] }

   The "gc" section is the dynamic half of the hot-path allocation
   contract: every kernel lint.budget pins at zero allocation sites is
   measured with a Gc.minor_words meter, amortised per inner operation
   (candidate scanned, prefix element, flat leg slot), and the run
   fails if a statically-zero kernel allocates (>= 0.5 minor words per
   op — float-returning kernels legitimately pay the one 2-word ABI
   return box per *call*, which amortises to ~0 per op; a per-op box
   or closure shows up as >= 2).

   The benchmark compares steady-state evaluation: both paths are
   warmed first, so the reference side pays its per-access mutex +
   hashtable probe and the compiled side its array reads — which is
   exactly the trade the adversary's inner loop sees (the prefix is
   re-probed once per candidate target). *)

module FS = Faulty_search

let quota = ref 0.5
let out_path = ref "BENCH_kernels.json"
let history_path = ref (Filename.concat "results" "bench_history.jsonl")
let no_history = ref false
let budget_path = ref "lint.budget"

(* Mean ns/run of [f], measured in doubling batches until [quota]
   seconds of measurement have accumulated.  [f] is warmed once before
   timing so memoisation caches are populated. *)
let time_ns ~quota f =
  ignore (Sys.opaque_identity (f ()));
  let total_t = ref 0. and total_runs = ref 0 in
  let batch = ref 1 in
  while !total_t < quota do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to !batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    total_t := !total_t +. (Unix.gettimeofday () -. t0);
    total_runs := !total_runs + !batch;
    if !batch < 1_048_576 then batch := !batch * 2
  done;
  !total_t /. float_of_int !total_runs *. 1e9

type result = { name : string; baseline_ns : float; candidate_ns : float }

let speedup r = r.baseline_ns /. r.candidate_ns

(* --- kernel 1: turning-prefix evaluation ---------------------------- *)

let turning_prefix () =
  let p = FS.Params.line ~k:3 ~f:1 in
  let turns = (FS.Orc_cover.of_mray_group (FS.Mray_exponential.make p)).(0) in
  let depth = 512 in
  let lazy_eval () =
    let acc = ref 0. in
    for i = 1 to depth do
      acc := !acc +. FS.Turning.partial_sum turns i
    done;
    !acc
  in
  let c = FS.Turning.compile ~hint:depth turns in
  let compiled_eval () =
    let acc = ref 0. in
    for i = 1 to depth do
      acc := !acc +. FS.Turning.compiled_partial_sum c i
    done;
    !acc
  in
  (* both views must agree bit for bit before we time them *)
  assert (Float.equal (lazy_eval ()) (compiled_eval ()));
  {
    name = "turning/prefix-sums-512";
    baseline_ns = time_ns ~quota:!quota lazy_eval;
    candidate_ns = time_ns ~quota:!quota compiled_eval;
  }

(* --- kernel 2: the adversary's critical-point scan ------------------ *)

let adversary_scan () =
  let p = FS.Params.line ~k:3 ~f:1 in
  let strat = FS.Mray_exponential.make p in
  let trs =
    Array.map FS.Trajectory.compile (FS.Mray_exponential.itineraries strat)
  in
  let reference () = FS.Adversary.reference trs ~f:1 ~n:50. () in
  let compiled () = FS.Adversary.worst_case trs ~f:1 ~n:50. () in
  let out_ref = reference () and out_compiled = compiled () in
  assert (Float.equal out_ref.FS.Adversary.ratio out_compiled.FS.Adversary.ratio);
  assert (
    FS.World.equal_point out_ref.FS.Adversary.witness
      out_compiled.FS.Adversary.witness);
  {
    name = "adversary/worst-case-k3-f1-n50";
    baseline_ns = time_ns ~quota:!quota reference;
    candidate_ns = time_ns ~quota:!quota compiled;
  }

(* --- kernel 3: sweep-grid dispatch granularity ---------------------- *)

let grid_batch () =
  let cells = List.init 256 Fun.id in
  let cell _meter i =
    (* a cheap cell: dispatch overhead must be visible next to it *)
    FS.Formulas.a_mray ~m:3 ~k:2 ~f:1 +. float_of_int i
  in
  let run chunk () =
    FS.Pool.with_pool ~jobs:1 @@ fun pool ->
    FS.Supervise.map pool ~chunk
      ~task:(fun i _ -> Printf.sprintf "bench/cell-%d" i)
      ~f:cell cells
  in
  let sum rs =
    List.fold_left
      (fun acc -> function Ok v -> acc +. v | Error _ -> acc)
      0. rs
  in
  assert (Float.equal (sum (run 1 ())) (sum (run 16 ())));
  {
    name = "sweep/grid-dispatch-chunk16";
    baseline_ns = time_ns ~quota:!quota (run 1);
    candidate_ns = time_ns ~quota:!quota (run 16);
  }

(* --- Gc cross-check of the lint.budget zero-alloc kernels ----------- *)

type gc_result = { gname : string; words_per_op : float }

(* Minor words per inner operation: warm once, run [runs] repetitions,
   read the minor-words counter around the whole loop (the counter
   call itself allocates its boxed float result — once, outside the
   measured window). *)
let minor_words_per_op ~ops ~runs f =
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (f ()))
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int runs /. float_of_int ops

let gc_compiled_scan () =
  let p = FS.Params.line ~k:3 ~f:1 in
  let strat = FS.Mray_exponential.make p in
  let horizon = 256. *. 50. in
  let flats =
    Array.map
      (fun tr -> FS.Trajectory.flatten (FS.Trajectory.compile tr) ~horizon)
      (FS.Mray_exponential.itineraries strat)
  in
  let depths =
    Array.init 2 (fun _ -> Array.init 64 (fun i -> 1. +. (float_of_int i /. 2.)))
  in
  let k = Array.length flats in
  let times = Array.make k infinity in
  let out = [| neg_infinity; 0.; 0. |] in
  let ops = Array.fold_left (fun acc a -> acc + Array.length a) 0 depths in
  {
    gname = "Adversary.compiled_scan";
    words_per_op =
      minor_words_per_op ~ops ~runs:500 (fun () ->
          FS.Adversary.compiled_scan ~flats ~depths ~times ~f:1 ~k ~horizon
            ~out);
  }

let gc_prefix_walk () =
  let p = FS.Params.line ~k:3 ~f:1 in
  let turns = (FS.Orc_cover.of_mray_group (FS.Mray_exponential.make p)).(0) in
  let depth = 512 in
  let c = FS.Turning.compile ~hint:depth turns in
  ignore (FS.Turning.compiled_partial_sum c depth);
  {
    gname = "Turning.compiled_prefix_walk";
    words_per_op =
      minor_words_per_op ~ops:depth ~runs:2000 (fun () ->
          FS.Turning.compiled_prefix_walk c depth);
  }

let gc_flat_first_visit () =
  let p = FS.Params.line ~k:3 ~f:1 in
  let strat = FS.Mray_exponential.make p in
  let horizon = 500. in
  let tr = FS.Trajectory.compile (FS.Mray_exponential.itineraries strat).(0) in
  let fl = FS.Trajectory.flatten tr ~horizon in
  let ops = Array.length fl.FS.Trajectory.flat_starts in
  {
    gname = "Trajectory.flat_first_visit";
    words_per_op =
      minor_words_per_op ~ops ~runs:20000 (fun () ->
          FS.Trajectory.flat_first_visit fl ~ray:0 ~dist:123.4 ~horizon);
  }

(* The static contract drives the dynamic check: every lint.budget
   entry pinned at zero must have a meter here, and must measure ~0.
   A zero-budget kernel without a measurement fails the run — adding a
   kernel to the budget file obliges wiring a meter for it. *)
let gc_check results =
  match Search_analysis.Budget.load !budget_path with
  | Error msg ->
      Printf.eprintf "kernels.exe: %s\n" msg;
      exit 2
  | Ok budget ->
      let failures = ref 0 in
      List.iter
        (fun (name, count, _line) ->
          if count = 0 then
            match List.find_opt (fun g -> String.equal g.gname name) results with
            | None ->
                incr failures;
                Printf.eprintf
                  "kernels.exe: %s is budgeted zero-alloc in %s but has no \
                   Gc meter in bench/kernels.ml\n"
                  name !budget_path
            | Some g ->
                if g.words_per_op >= 0.5 then begin
                  incr failures;
                  Printf.eprintf
                    "kernels.exe: %s is budgeted zero-alloc but allocates \
                     %.2f minor words per op\n"
                    name g.words_per_op
                end)
        (Search_analysis.Budget.entries_located budget);
      !failures = 0

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse
    [
      ( "--quota",
        Arg.Set_float quota,
        "SECONDS  measurement budget per timed side (default 0.5)" );
      ( "--out",
        Arg.Set_string out_path,
        "FILE  where to write the JSON report (default BENCH_kernels.json)" );
      ( "--history",
        Arg.Set_string history_path,
        "FILE  JSONL trend history to append to (default \
         results/bench_history.jsonl)" );
      ( "--no-history",
        Arg.Set no_history,
        "  skip the trend-history append (CI uses the artifact instead)" );
      ( "--budget",
        Arg.Set_string budget_path,
        "FILE  lint.budget to cross-check Gc meters against (default \
         lint.budget)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "kernels.exe [--quota S] [--out FILE]";
  if !quota <= 0. then begin
    prerr_endline "kernels.exe: --quota must be positive";
    exit 2
  end;
  let results = [ turning_prefix (); adversary_scan (); grid_batch () ] in
  let gc_results =
    [ gc_compiled_scan (); gc_prefix_walk (); gc_flat_first_visit () ]
  in
  let json =
    FS.Json.Assoc
      [
        ("bench", FS.Json.String "kernels");
        ("jobs", FS.Json.Number 1.);
        ( "kernels",
          FS.Json.List
            (List.map
               (fun r ->
                 FS.Json.Assoc
                   [
                     ("name", FS.Json.String r.name);
                     ("baseline_ns", FS.Json.Number r.baseline_ns);
                     ("candidate_ns", FS.Json.Number r.candidate_ns);
                     ("speedup", FS.Json.Number (speedup r));
                   ])
               results) );
        ( "gc",
          FS.Json.List
            (List.map
               (fun g ->
                 FS.Json.Assoc
                   [
                     ("name", FS.Json.String g.gname);
                     ("minor_words_per_op", FS.Json.Number g.words_per_op);
                   ])
               gc_results) );
      ]
  in
  Out_channel.with_open_text !out_path (fun oc ->
      output_string oc (FS.Json.to_string ~pretty:true json);
      output_char oc '\n');
  if not !no_history then begin
    let metrics = FS.Metrics.create ~jobs:1 () in
    List.iter
      (fun r ->
        FS.Metrics.record metrics
          ~experiment:(r.name ^ "/baseline")
          ~seconds:(r.baseline_ns /. 1e9);
        FS.Metrics.record metrics
          ~experiment:(r.name ^ "/candidate")
          ~seconds:(r.candidate_ns /. 1e9))
      results;
    (* the trend line abuses the seconds column for minor words/op:
       what matters is that a regression shows as a jump in the series *)
    List.iter
      (fun g ->
        FS.Metrics.record metrics
          ~experiment:("gc/" ^ g.gname)
          ~seconds:g.words_per_op)
      gc_results;
    (try Unix.mkdir (Filename.dirname !history_path) 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    FS.Metrics.append_history metrics ~path:!history_path ~run:"kernels"
  end;
  List.iter
    (fun r ->
      Printf.printf "%-32s baseline %10.1f ns   compiled %10.1f ns   %.2fx\n"
        r.name r.baseline_ns r.candidate_ns (speedup r))
    results;
  List.iter
    (fun g ->
      Printf.printf "%-32s %.3f minor words/op\n" g.gname g.words_per_op)
    gc_results;
  Printf.printf "(report written to %s)\n" !out_path;
  if not (gc_check gc_results) then exit 1
