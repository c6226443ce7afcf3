(* perfbench: the repository's benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (serve-cached, offline-report), checks
   every output against an in-process reference, prints a few
   human-readable lines and, last, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Run it from the
   repository root after building (perfbench/run.sh does both).

   [perfbench daemon ...] is the traced run's daemon (Server.run in this
   process with a timed runtime); it is started by the benchmark itself. *)

module FS = Faulty_search
module P = Search_serve.Protocol

let usage () =
  prerr_endline
    "usage: perfbench --workload serve-cached|offline-report --seed N --seconds S \
     --trace 0|1 [--corrupt-reference|--corrupt-request]";
  exit 2

(* A run whose generator sent its open-loop requests later than this
   (p99 of send time minus due time) did not offer the intended load and
   is invalid.  Host stalls of 1-16 ms are common on small VMs, so the
   limit sits well above them and far below the 1000 ms latency limit. *)
let gen_late_limit_ms = 50.

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable corrupt : Workload.corruption;
}

let parse argv =
  let o =
    { workload = ""; seed = Workload.default_seed; seconds = 10.; trace = false; corrupt = Workload.Intact }
  in
  let num f v = match f v with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r ->
        o.workload <- v;
        go r
    | "--seed" :: v :: r ->
        o.seed <- num int_of_string_opt v;
        go r
    | "--seconds" :: v :: r ->
        o.seconds <- num float_of_string_opt v;
        go r
    | "--trace" :: ("0" | "1" as v) :: r ->
        o.trace <- v = "1";
        go r
    | "--corrupt-reference" :: r ->
        o.corrupt <- Workload.Bad_reference;
        go r
    | "--corrupt-request" :: r ->
        o.corrupt <- Workload.Bad_request;
        go r
    | _ -> usage ()
  in
  go argv;
  if o.seconds <= 0. then usage ();
  o

(* ------------------------------------------------------------------ *)
(* environment record                                                  *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let commit () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match String.trim (read_file (Filename.concat ".git" r)) with
      | c -> c
      | exception Sys_error _ -> "unknown (" ^ r ^ ")")
  | c -> c

(* Digest of the library and CLI sources: names the code under test when
   the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  let all = files "lib" @ files "bin" in
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun p -> p ^ read_file p) all)))

(* ------------------------------------------------------------------ *)
(* output                                                              *)

let say fmt = Printf.printf ("perfbench: " ^^ fmt ^^ "\n%!")

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let table metrics = List.iter (fun (n, u, v) -> say "  %-34s %14.6f %s" n v u) metrics

(* Every per-layer metric; the layers a workload bypasses report 0. *)
let per_layer_names =
  [
    ("runtime.select_wait_us", "us"); ("runtime.read_us", "us"); ("runtime.write_us", "us");
    ("runtime.syscalls_per_req", "count"); ("runtime.bytes_out_per_req", "bytes");
    ("protocol.decode_us", "us"); ("protocol.encode_us", "us"); ("protocol.frame_bytes", "bytes");
    ("server.batch_mean", "count"); ("server.max_batch", "count"); ("server.shed_count", "count");
    ("dispatch.batch_us", "us"); ("dispatch.cache_hit_ratio", "ratio");
    ("dispatch.cache_lookups", "count"); ("dispatch.cache_evictions", "count");
    ("exec.overhead_us", "us"); ("exec.busy_ratio", "ratio"); ("exec.tasks", "count");
    ("strategy.randomized_us_per_sample", "us"); ("sim.adversary_us", "us");
    ("sim.candidates_scanned", "count"); ("sim.exact_adversary_us", "us");
    ("covering.certificate_us", "us"); ("core.report_self_us", "us");
    ("gc.minor_words_per_req", "words"); ("gc.major_per_1k", "count");
    ("bench.gen_late_ms", "ms"); ("trace.overhead_p50_ms", "ms");
    ("trace.overhead_peak_rps", "1/s");
  ]

let layer_metrics values =
  List.map
    (fun (n, u) -> (n, u, Option.value (List.assoc_opt n values) ~default:0.))
    per_layer_names

let kernel_metrics spans =
  let per name countname =
    let c = Spans.count spans countname in
    if c = 0 then 0. else Spans.total spans name /. float_of_int c *. 1e6
  in
  let adv = Spans.count spans "sim.adversary" in
  [
    ("strategy.randomized_us_per_sample", per "strategy.randomized" "strategy.randomized.samples");
    ("sim.adversary_us", Spans.mean_self_us spans "sim.adversary");
    ( "sim.candidates_scanned",
      if adv = 0 then 0.
      else float_of_int (Spans.count spans "sim.candidates_scanned") /. float_of_int adv );
    ("sim.exact_adversary_us", Spans.mean_self_us spans "sim.exact_adversary");
    ("covering.certificate_us", Spans.mean_self_us spans "covering.certificate");
  ]

let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* serve workloads                                                     *)

let cli = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "search_cli.exe"))

let serve_workload o (s : Workload.serve) ~nproc ~dir =
  (* the generator's own pauses count against the daemon (latency is
     timed from the due time): a larger minor heap keeps them rare *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let jobs = min s.jobs nproc in
  say "workload %s: daemon --jobs %d --queue-cap %d --batch-cap %d --cache-cap %d; %d connections, \
       closed-loop window %d per connection, open-loop rate %.0f/s (Poisson)"
    o.workload jobs s.queue_cap s.batch_cap s.cache_cap (min s.conns nproc) s.window s.rate;
  if not (Sys.file_exists cli) then begin
    prerr_endline ("perfbench: " ^ cli ^ " is missing; build with perfbench/run.sh");
    exit 2
  end;
  let flags =
    [ "--jobs"; string_of_int jobs; "--queue-cap"; string_of_int s.queue_cap; "--batch-cap";
      string_of_int s.batch_cap; "--cache-cap"; string_of_int s.cache_cap ]
  in
  let real ~socket = Array.of_list ([ cli; "serve"; "--socket"; socket ] @ flags) in
  let run ~daemon_argv ~tag =
    Serve_run.run ~s ~seed:o.seed ~seconds:o.seconds ~nproc ~corrupt:o.corrupt ~daemon_argv ~dir ~tag
  in
  let r = run ~daemon_argv:real ~tag:"plain" in
  let gate (r : Serve_run.result) label =
    (* exactly one terminal outcome per request sent, each correct: a
       [Failed] answer to a valid request is wrong too *)
    let ok =
      r.wrong = 0 && r.errors = 0 && r.unknown = 0 && r.unanswered = 0 && (not r.broken) && r.conserved
      && r.gen_late_p99_ms <= gen_late_limit_ms && not r.exhausted
    in
    if r.exhausted then say "%s: the closed loop used up its request stream" label;
    say "%s: sent %d (open loop %d), sheds %d (open loop %d), errors %d, unanswered %d, \
         wrong %d, unknown %d; every daemon's stats served + sheds = requests it was sent + 1 \
         probe: %b (last daemon: %d + %d); generator late p99 %.3f ms (limit %.0f)"
      label r.attempted r.open_sent r.sheds r.open_sheds r.errors r.unanswered r.wrong r.unknown
      r.conserved r.stats.P.served r.stats.P.sheds r.gen_late_p99_ms gen_late_limit_ms;
    (match r.book.Loadgen.wrong_sample with
    | Some p -> say "%s: first mismatching response: %s" label p
    | None -> ());
    ok
  in
  let ok = gate r "untraced" in
  let e2e (r : Serve_run.result) =
    [
      ("setup_s", "s", r.setup_s); ("capacity_rps", "1/s", Host.scale ~host:r.host r.capacity_rps);
      ("peak_rps", "1/s", Host.scale ~host:r.host r.peak_rps); ("ok_ratio", "ratio", r.ok_ratio);
      ("rss_mb", "MB", r.rss_mb);
    ]
  in
  (* printed on every run, not gated: see perfbench/README.md *)
  let extra (r : Serve_run.result) =
    [
      ("p50_ms", "ms", r.p50_ms); ("p90_ms", "ms", r.p90_ms); ("p99_ms", "ms", r.p99_ms);
      ("capacity_raw_rps", "1/s", r.capacity_rps); ("peak_raw_rps", "1/s", r.peak_rps);
      ("host_speed", "ratio", r.host /. Host.reference); ("daemon_busy_share", "ratio", r.busy_share);
      ("shed_ratio", "ratio", fi r.open_sheds /. fi r.open_sent);
      ("error_ratio", "ratio", fi r.errors /. fi (max 1 r.attempted));
    ]
  in
  say "capacity_rps: closed-loop responses per daemon CPU second, peak_rps per wall second \
       (medians over %d daemons), both at the reference host speed (raw: as measured); \
       latencies: open loop, from \
       each request's due time, median over slices of 1000 of %d requests, a shed, failed or \
       unanswered request counting as %.0f ms" Serve_run.setup_spawns r.open_sent
    Serve_run.latency_limit_ms;
  table (e2e r @ extra r);
  if not o.trace then
    result_line ~correct:ok ~attempted:r.attempted ~failed:r.errors (e2e r)
  else begin
    let exe = Sys.executable_name in
    let summary = Filename.concat dir "traced.summary" in
    let traced ~socket =
      Array.of_list
        ([ exe; "daemon"; "--socket"; socket; "--trace-out"; summary ] @ flags)
    in
    let t = run ~daemon_argv:traced ~tag:"traced" in
    let ok = gate t "traced" && ok in
    let sm = Traced_daemon.read_summary summary in
    let served = fi (max 1 sm.Traced_daemon.served) in
    let st = t.stats in
    let c = st.P.cache in
    let lookups = c.P.hits + c.P.misses in
    let spans = Spans.create () in
    let replay_n = min (Array.length t.open_ids) 20000 in
    let ids = Array.sub t.open_ids 0 replay_n in
    let proto = Layers.protocol spans t.book ~resps:t.resps ids in
    let batch = max 1 (int_of_float (Float.round (fi st.P.served /. fi (max 1 st.P.batches)))) in
    let reqs = Array.map (fun id -> s.pool.(t.book.Loadgen.reqs.(id))) ids in
    let dsp = Layers.dispatch spans ~jobs ~cache_cap:s.cache_cap ~batch reqs in
    let values =
      [
        ("runtime.select_wait_us", sm.select_s /. served *. 1e6);
        ("runtime.read_us", sm.read_s /. served *. 1e6);
        ("runtime.write_us", sm.write_s /. served *. 1e6);
        ("runtime.syscalls_per_req", fi sm.syscalls /. served);
        ("runtime.bytes_out_per_req", fi sm.bytes_out /. served);
        ("protocol.decode_us", proto.decode_us);
        ("protocol.encode_us", proto.encode_us);
        ("protocol.frame_bytes", proto.frame_bytes);
        ("server.batch_mean", fi st.P.served /. fi (max 1 st.P.batches));
        ("server.max_batch", fi st.P.max_batch);
        ("server.shed_count", fi st.P.sheds);
        ("dispatch.batch_us", dsp.batch_us);
        ("dispatch.cache_hit_ratio", if lookups = 0 then 0. else fi c.P.hits /. fi lookups);
        ("dispatch.cache_lookups", fi lookups);
        ("dispatch.cache_evictions", fi c.P.evictions);
        ("exec.overhead_us", dsp.overhead_us);
        ("exec.busy_ratio", dsp.busy_ratio);
        ("exec.tasks", fi st.P.pool.P.submitted);
        ("gc.minor_words_per_req", dsp.gc.minor_words_per_req);
        ("gc.major_per_1k", dsp.gc.major_per_1k);
        ("bench.gen_late_ms", t.gen_late_p99_ms);
        ("trace.overhead_p50_ms", t.p50_ms -. r.p50_ms);
        ("trace.overhead_peak_rps", t.peak_rps -. r.peak_rps);
      ]
      @ kernel_metrics spans
    in
    say "traced end-to-end (overhead = traced - untraced):";
    table (e2e t @ extra t);
    say "per-layer (replays over %d open-loop requests, dispatch batches of %d):" replay_n batch;
    Spans.write spans (Filename.concat dir "replay.spans.tsv");
    Spans.write t.spans (Filename.concat dir "requests.spans.tsv");
    let m = layer_metrics values in
    table m;
    result_line ~correct:ok ~attempted:(r.attempted + t.attempted) ~failed:(r.errors + t.errors) m
  end;
  ok

(* ------------------------------------------------------------------ *)
(* offline-report                                                      *)

let offline_workload o (w : Workload.offline) ~nproc ~dir =
  let jobs = min w.ojobs nproc and grid = w.grid in
  let g = Array.length grid in
  say "workload %s: %d-instance (m,k,f,n,lambda) grid, pool --jobs %d, Report.build + 3-point \
       certificate lambda-grid per instance" o.workload g jobs;
  let reference =
    let d = Offline.reference grid in
    if o.corrupt = Workload.Bad_reference then Digest.to_hex (Digest.string d) else d
  in
  (* the grid the timed passes run: with --corrupt-request, an invalid
     instance in place of the first *)
  let sent =
    if o.corrupt <> Workload.Bad_request then grid
    else
      let (m, k, f), (_, _, _, n, lambda) = (Workload.invalid_instance, grid.(0)) in
      Array.mapi (fun i x -> if i = 0 then (m, k, f, n, lambda) else x) grid
  in
  let check results =
    let outs = List.map (function Ok (s, _) -> s | Error _ -> "") results in
    Offline.digest outs = reference
  in
  let warm_ok = ref true in
  let setup () =
    let t0 = Unix.gettimeofday () in
    let p = FS.Pool.create ~jobs () in
    let res = Offline.pass p sent in
    let dt = Unix.gettimeofday () -. t0 in
    warm_ok := !warm_ok && check res;
    (p, dt)
  in
  (* the first set-up makes the pool the timed passes run on; the other
     repetitions are spread over the untraced run, so the median is not
     set by one stretch of host speed.  A set-up costs one pass, so there
     are more of them than daemon spawns in the serve workloads. *)
  let setup_reps = 25 in
  (* throughput is the median over this many slices of the run *)
  let rate_slices = 30 in
  let pool, s0 = setup () in
  let setups = ref [ s0 ] and probes = ref [ Host.probe () ] in
  let another_setup () =
    let p, dt = setup () in
    FS.Pool.shutdown p;
    setups := dt :: !setups;
    probes := Host.probe () :: !probes
  in
  let run_passes ~trace_spans =
    let lat = ref [] and n = ref 0 and failed = ref 0 and bad = ref 0 in
    (* instances per CPU and per wall second, one of each per slice of
       [slice_s] seconds of passes: the per-thread CPU counters advance
       in scheduler ticks (4 ms at HZ=250), too coarse for one pass *)
    let cpu_rates = ref [] and wall_rates = ref [] in
    let slice_s = o.seconds /. fi rate_slices in
    let sk = ref 0 and sc = ref 0. and sw = ref 0. in
    let tasks0 = (FS.Pool.stats pool).FS.Pool.submitted in
    let start = Unix.gettimeofday () in
    let stop = start +. o.seconds in
    let setup_due () =
      let k = List.length !setups in
      trace_spans = None && k < setup_reps
      && Unix.gettimeofday () >= start +. (o.seconds *. fi k /. fi setup_reps)
    in
    let passes = ref 0 in
    while Unix.gettimeofday () < stop do
      if setup_due () then another_setup ();
      let c0 = Daemon.cpu_s 0 and t0 = Unix.gettimeofday () in
      let res = Offline.pass pool sent in
      let t1 = Unix.gettimeofday () and c1 = Daemon.cpu_s 0 in
      sk := !sk + List.length res;
      sc := !sc +. (c1 -. c0);
      sw := !sw +. (t1 -. t0);
      if !sw >= slice_s || (Unix.gettimeofday () >= stop && !cpu_rates = []) then begin
        cpu_rates := (fi !sk /. !sc) :: !cpu_rates;
        wall_rates := (fi !sk /. !sw) :: !wall_rates;
        sk := 0;
        sc := 0.;
        sw := 0.
      end;
      incr passes;
      (match trace_spans with
      | Some sp -> Spans.add sp ~name:"exec.pass" ~req:!passes ~start:t0 t1
      | None -> ());
      List.iter
        (function
          | Ok (_, d) ->
              lat := (d *. 1e3) :: !lat;
              incr n
          | Error _ ->
              incr failed;
              incr n)
        res;
      if not (check res) then incr bad
    done;
    let lat = Array.of_list !lat in
    Array.sort Float.compare lat;
    let tasks = (FS.Pool.stats pool).FS.Pool.submitted - tasks0 in
    let med l = Serve_run.median (Array.of_list l) in
    (lat, med !wall_rates, med !cpu_rates, !n, !failed, !bad, !passes, tasks)
  in
  let lat, peak, cap, n, failed, bad, passes, tasks = run_passes ~trace_spans:None in
  while List.length !setups < setup_reps do
    another_setup ()
  done;
  let setups = Array.of_list (List.rev !setups) in
  let host = Serve_run.median (Array.of_list !probes) in
  say "set-up (pool create + warm pass) times, ms: %s"
    (String.concat " " (Array.to_list (Array.map (fun t -> Printf.sprintf "%.2f" (t *. 1e3)) setups)));
  let rss = Daemon.vmhwm_mb 0 in
  let e2e cap peak n failed =
    [
      ("setup_s", "s", Serve_run.median setups); ("capacity_rps", "1/s", Host.scale ~host cap);
      ("peak_rps", "1/s", Host.scale ~host peak); ("ok_ratio", "ratio", fi (n - failed) /. fi (max 1 n));
      ("rss_mb", "MB", rss);
    ]
  in
  let extra lat cap peak n failed =
    [
      ("capacity_raw_rps", "1/s", cap); ("peak_raw_rps", "1/s", peak);
      ("host_speed", "ratio", host /. Host.reference);
      ("p50_ms", "ms", Serve_run.pct lat 50.); ("p90_ms", "ms", Serve_run.pct lat 90.);
      ("p99_ms", "ms", Serve_run.pct lat 99.);
      ("error_ratio", "ratio", fi failed /. fi (max 1 n));
    ]
  in
  let ok = !warm_ok && bad = 0 in
  say "%d passes, %d instances, %d failed, %d passes with a digest different from the reference"
    passes n failed bad;
  say "time per instance over %d instances; capacity_rps is instances per CPU second, \
       peak_rps instances per wall second, each the median over %d slices of \
       passes over the %d-instance grid, at the reference host speed (raw: as measured)"
    (Array.length lat) rate_slices g;
  let m = e2e cap peak n failed in
  table (m @ extra lat cap peak n failed);
  if not o.trace then begin
    FS.Pool.shutdown pool;
    result_line ~correct:ok ~attempted:n ~failed m
  end
  else begin
    let sp = Spans.create () in
    let tlat, tpeak, tcap, tn, tfailed, tbad, tpasses, _ = run_passes ~trace_spans:(Some sp) in
    FS.Pool.shutdown pool;
    let ok = ok && tbad = 0 in
    let tm = e2e tcap tpeak tn tfailed @ extra tlat tcap tpeak tn tfailed in
    say "traced end-to-end (overhead = traced - untraced):";
    table tm;
    (* the same instances called directly, one after another, over as
       many passes as it takes to average out *)
    let direct_passes = 10 in
    let gcs =
      Layers.gc_around (g * direct_passes) (fun () ->
          for _ = 1 to direct_passes do
            Array.iteri
              (fun req i -> ignore (Spans.span sp ~name:"direct" ~req (fun _ -> Offline.output i)))
              grid
          done)
    in
    Array.iteri (fun req i -> Layers.report_instance sp ~req i) grid;
    let mean name = Spans.mean_self_us sp name in
    let pass_us = Spans.total sp "exec.pass" /. fi (max 1 tpasses) *. 1e6 in
    let direct_us = Spans.total sp "direct" /. fi direct_passes *. 1e6 in
    let get name = List.assoc name (List.map (fun (a, _, v) -> (a, v)) (m @ extra lat cap peak n failed))
    and tget name = List.assoc name (List.map (fun (a, _, v) -> (a, v)) tm) in
    let values =
      [
        ("exec.overhead_us", pass_us -. direct_us);
        ("exec.busy_ratio", direct_us /. (pass_us *. fi jobs));
        ("exec.tasks", fi tasks /. fi (max 1 passes));
        ( "core.report_self_us",
          mean "core.report" -. mean "sim.exact_adversary" -. mean "sim.adversary"
          -. mean "covering.certificate" );
        ("gc.minor_words_per_req", gcs.Layers.minor_words_per_req);
        ("gc.major_per_1k", gcs.Layers.major_per_1k);
        ("trace.overhead_p50_ms", tget "p50_ms" -. get "p50_ms");
        ("trace.overhead_peak_rps", tget "peak_rps" -. get "peak_rps");
      ]
      @ kernel_metrics sp
    in
    Spans.write sp (Filename.concat dir "offline.spans.tsv");
    let lm = layer_metrics values in
    say "per-layer (direct calls over the %d-instance grid; bypassed layers report 0):" g;
    table lm;
    result_line ~correct:ok ~attempted:(n + tn) ~failed:(failed + tfailed) lm
  end;
  ok

(* ------------------------------------------------------------------ *)

let daemon_main argv =
  let get k = match List.assoc_opt k argv with Some v -> v | None -> usage () in
  let int k = int_of_string (get k) in
  Traced_daemon.run ~socket:(get "--socket") ~jobs:(int "--jobs") ~queue_cap:(int "--queue-cap")
    ~batch_cap:(int "--batch-cap") ~cache_cap:(int "--cache-cap") ~out:(get "--trace-out")

let rec pairs = function k :: v :: r -> (k, v) :: pairs r | [] -> [] | [ _ ] -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "daemon" :: rest -> daemon_main (pairs rest)
  | [ _; "host-probe" ] -> Host.probe_main ()
  | _ :: rest ->
      let o = parse rest in
      let w = match Workload.make o.workload o.seed with Some w -> w | None -> usage () in
      if not (Sys.file_exists "dune-project" && Sys.file_exists "lib") then begin
        prerr_endline "perfbench: run from the repository root";
        exit 2
      end;
      let nproc = Domain.recommended_domain_count () in
      let dir = ".perfbench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      say "env: nproc %d, OCaml %s, commit %s, sources %s, seed %d (default %d, held out %d), \
           %.0f s, trace %d"
        nproc Sys.ocaml_version (commit ()) (source_digest ()) o.seed Workload.default_seed
        Workload.heldout_seed o.seconds (if o.trace then 1 else 0);
      let ok =
        match w.Workload.kind with
        | Workload.Serve s -> serve_workload o s ~nproc ~dir
        | Workload.Offline ow -> offline_workload o ow ~nproc ~dir
      in
      if not ok then begin
        prerr_endline "perfbench: correctness gate failed";
        exit 1
      end
  | [] -> usage ()
