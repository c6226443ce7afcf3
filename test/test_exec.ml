(* Tests for the multicore execution engine: the domain pool, the
   order-preserving parallel combinators, the deterministic sharder, the
   thread-safe LRU memo cache, and the metrics recorder.  The central claim
   under test is the determinism contract: every parallel path produces
   results identical to the sequential path at every pool size. *)

module Pool = Search_exec.Pool
module Par = Search_exec.Par
module Shard = Search_exec.Shard
module Memo = Search_exec.Memo
module Metrics = Search_exec.Metrics
module Prng = Search_numerics.Prng
module E = Search_numerics.Search_error
module F = Search_bounds.Formulas
module R = Search_strategy.Randomized

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-12))

(* every pool-size-sensitive test runs at these sizes; 1 must spawn no
   domain (pure helping), 8 oversubscribes this container on purpose *)
let pool_sizes = [ 1; 2; 8 ]

let at_each_size name f =
  List.iter
    (fun jobs -> Pool.with_pool ~jobs (fun pool -> f ~jobs pool))
    pool_sizes;
  ignore name

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_await_value () =
  at_each_size "await" @@ fun ~jobs pool ->
  let p = Pool.async pool (fun () -> 6 * 7) in
  check_int (Printf.sprintf "value at jobs=%d" jobs) 42 (Pool.await p)

let test_pool_ordering () =
  at_each_size "ordering" @@ fun ~jobs pool ->
  let promises = List.init 50 (fun i -> Pool.async pool (fun () -> i * i)) in
  let results = List.map Pool.await promises in
  check_bool
    (Printf.sprintf "results in submission order at jobs=%d" jobs)
    true
    (results = List.init 50 (fun i -> i * i))

exception Boom of int

let test_pool_exception_propagation () =
  at_each_size "exceptions" @@ fun ~jobs pool ->
  let p = Pool.async pool (fun () -> raise (Boom 17)) in
  (match Pool.await p with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom n ->
      check_int (Printf.sprintf "payload at jobs=%d" jobs) 17 n);
  (* the same promise re-raises on every await *)
  (match Pool.await p with
  | _ -> Alcotest.fail "expected Boom again"
  | exception Boom n -> check_int "payload again" 17 n);
  (* and the pool survives the failure *)
  check_int "pool still works" 5 (Pool.await (Pool.async pool (fun () -> 5)))

let test_pool_nested_submit () =
  at_each_size "nested" @@ fun ~jobs pool ->
  (* tasks that themselves fan out on the same pool: the helping await
     makes this deadlock-free even at jobs = 1 *)
  let outer =
    List.init 8 (fun i ->
        Pool.async pool (fun () ->
            let inner =
              List.init 5 (fun j -> Pool.async pool (fun () -> (10 * i) + j))
            in
            List.fold_left (fun acc p -> acc + Pool.await p) 0 inner))
  in
  let total = List.fold_left (fun acc p -> acc + Pool.await p) 0 outer in
  let expected =
    List.concat_map (fun i -> List.init 5 (fun j -> (10 * i) + j))
      (List.init 8 Fun.id)
    |> List.fold_left ( + ) 0
  in
  check_int (Printf.sprintf "nested sum at jobs=%d" jobs) expected total

let test_pool_shutdown_rejects () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  match Pool.async pool (fun () -> ()) with
  | _ -> Alcotest.fail "async on shut-down pool must raise"
  | exception E.Error (E.Pool_closed _) -> ()

let test_pool_shutdown_fails_pending () =
  (* a promise still pending at shutdown must not wedge a later await:
     shutdown fails it with Pool_closed.  Submit more tasks than workers,
     with the queue gated so nothing completes before shutdown runs. *)
  let pool = Pool.create ~jobs:1 () in
  let gate = Atomic.make false in
  let slow =
    List.init 4 (fun i ->
        Pool.async pool (fun () ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            i))
  in
  (* let the single worker pick up (at most) the first task, then open
     the gate from a separate domain after shutdown has been called so
     the in-flight task can finish and shutdown's join returns *)
  let opener =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Atomic.set gate true)
  in
  Pool.shutdown pool;
  Domain.join opener;
  let outcomes =
    List.map
      (fun p ->
        match Pool.await p with
        | v -> `Done v
        | exception E.Error (E.Pool_closed _) -> `Abandoned
        | exception e -> `Other (Printexc.to_string e))
      slow
  in
  (* every promise resolved — none wedged; abandoned ones carry
     Pool_closed, and any that ran to completion returned its index *)
  List.iteri
    (fun i o ->
      match o with
      | `Abandoned -> ()
      | `Done v -> check_int (Printf.sprintf "task %d value" i) i v
      | `Other e -> Alcotest.fail ("unexpected exception: " ^ e))
    outcomes;
  check_bool "at least one task was abandoned" true
    (List.exists (fun o -> o = `Abandoned) outcomes)

let test_pool_exception_does_not_wedge_siblings () =
  (* one raising task among many: siblings complete, the pool's mutex is
     not left held, and with_pool joins all domains cleanly *)
  at_each_size "no-wedge" @@ fun ~jobs pool ->
  let mixed =
    List.init 20 (fun i ->
        Pool.async pool (fun () ->
            if i mod 5 = 2 then raise (Boom i) else i * 3))
  in
  let got =
    List.mapi
      (fun i p ->
        match Pool.await p with
        | v -> `Ok v
        | exception Boom n ->
            check_int (Printf.sprintf "boom payload %d" i) i n;
            `Boom)
      mixed
  in
  let expected =
    List.init 20 (fun i -> if i mod 5 = 2 then `Boom else `Ok (i * 3))
  in
  check_bool
    (Printf.sprintf "mixed outcomes exact at jobs=%d" jobs)
    true (got = expected)

(* ------------------------------------------------------------------ *)
(* Par: parallel_map == List.map on the real bench grids *)

(* the T1 grid: closed-form line bounds A(k, f) *)
let t1_grid =
  List.concat_map (fun k -> List.init ((k / 2) + 1) (fun f -> (k, f)))
    [ 2; 3; 4; 5; 6; 7 ]

(* the T3 grid: m-ray bounds A(m, k, f) *)
let t3_grid =
  Shard.grid2 [ 2; 3; 4 ] [ (3, 0); (3, 1); (4, 1); (5, 2) ]
  |> List.map (fun (m, (k, f)) -> (m, k, f))

let test_parallel_map_t1 () =
  let f (k, fl) = F.a_line ~k ~f:fl in
  let expected = List.map f t1_grid in
  at_each_size "t1" @@ fun ~jobs pool ->
  check_bool
    (Printf.sprintf "T1 grid identical at jobs=%d" jobs)
    true
    (Par.parallel_map pool ~f t1_grid = expected)

let test_parallel_map_t3 () =
  let f (m, k, fl) = F.a_mray ~m ~k ~f:fl in
  let expected = List.map f t3_grid in
  at_each_size "t3" @@ fun ~jobs pool ->
  check_bool
    (Printf.sprintf "T3 grid identical at jobs=%d" jobs)
    true
    (Par.parallel_map pool ~f t3_grid = expected);
  check_bool
    (Printf.sprintf "chunked T3 grid identical at jobs=%d" jobs)
    true
    (Par.parallel_map ~chunk:3 pool ~f t3_grid = expected)

let test_parallel_mapi () =
  at_each_size "mapi" @@ fun ~jobs pool ->
  let xs = [ "a"; "b"; "c"; "d" ] in
  check_bool
    (Printf.sprintf "mapi at jobs=%d" jobs)
    true
    (Par.parallel_mapi pool ~f:(fun i s -> (i, s)) xs
    = List.mapi (fun i s -> (i, s)) xs)

(* ------------------------------------------------------------------ *)
(* Shard *)

let test_shard_prngs_independent_of_jobs () =
  (* the leaves depend only on (root, n); draw a float from each *)
  let root = Prng.make ~seed:99 in
  let draw g = fst (Prng.float g) in
  let leaves = Shard.prngs ~root ~n:6 |> Array.map draw in
  let again = Shard.prngs ~root ~n:6 |> Array.map draw in
  check_bool "leaves reproducible" true (leaves = again);
  (* a prefix of a larger tree matches: leaf i does not depend on n *)
  let wider = Shard.prngs ~root ~n:10 |> Array.map draw in
  check_bool "leaf i independent of n" true
    (Array.to_list leaves = List.filteri (fun i _ -> i < 6)
                               (Array.to_list wider));
  let distinct =
    Array.to_list leaves |> List.sort_uniq Float.compare |> List.length
  in
  check_int "leaves distinct" 6 distinct

let test_grid2_row_major () =
  check_bool "row-major order" true
    (Shard.grid2 [ 1; 2 ] [ "x"; "y"; "z" ]
    = [ (1, "x"); (1, "y"); (1, "z"); (2, "x"); (2, "y"); (2, "z") ])

let test_sharded_stochastic_jobs_invariant () =
  (* the bench's X2 Monte-Carlo column, in miniature: a fixed 8-shard
     decomposition per beta, each shard drawing from its own split-tree
     leaf, folded in input order.  Identical at jobs = 1 and jobs = 8. *)
  let estimate pool ~beta =
    let root = Prng.make ~seed:20180723 in
    let shard_estimates =
      Shard.sharded_map pool ~root
        ~f:(fun ~prng () -> R.expected_ratio_at ~beta ~x:64. ~samples:32 ~prng)
        (List.init 8 (fun _ -> ()))
    in
    List.fold_left ( +. ) 0. shard_estimates /. 8.
  in
  let sequential = Pool.with_pool ~jobs:1 (fun pool -> estimate pool ~beta:3.5) in
  List.iter
    (fun jobs ->
      let parallel = Pool.with_pool ~jobs (fun pool -> estimate pool ~beta:3.5) in
      check_bool
        (Printf.sprintf "MC estimate bit-identical at jobs=%d" jobs)
        true
        (Int64.equal
           (Int64.bits_of_float sequential)
           (Int64.bits_of_float parallel)))
    pool_sizes;
  check_bool "estimate is sane" true (sequential > 1. && sequential < 20.)

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* The JSONL history file, one parsed value per line. *)
let history_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> (
            match Search_numerics.Json.of_string line with
            | Ok j -> go (j :: acc)
            | Error msg -> Alcotest.failf "unparsable history line: %s" msg)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_metrics_record_and_total () =
  let m = Metrics.create ~jobs:3 () in
  Metrics.record m ~experiment:"T1" ~seconds:0.5;
  Metrics.record m ~experiment:"T3" ~seconds:0.25;
  let x = Metrics.time m ~experiment:"quick" (fun () -> 11) in
  check_int "time passes result through" 11 x;
  check_bool "total >= recorded" true (Metrics.total m >= 0.75);
  let path = Filename.temp_file "metrics" ".jsonl" in
  Sys.remove path;
  Metrics.append_history m ~path ~run:"r";
  let experiments =
    match history_lines path with
    | [ line ] -> (
        match Search_numerics.Json.member "entries" line with
        | Some (Search_numerics.Json.List es) ->
            List.filter_map
              (fun e ->
                match Search_numerics.Json.member "experiment" e with
                | Some (Search_numerics.Json.String s) -> Some s
                | _ -> None)
              es
        | _ -> [])
    | _ -> []
  in
  Sys.remove path;
  (try Sys.remove (path ^ ".lock") with Sys_error _ -> ());
  check_bool "three entries, order kept" true
    (experiments = [ "T1"; "T3"; "quick" ])

let test_metrics_write_merges () =
  let path = Filename.temp_file "metrics" ".json" in
  let m1 = Metrics.create ~jobs:1 () in
  Metrics.record m1 ~experiment:"T1" ~seconds:1.0;
  Metrics.write m1 ~path;
  let m4 = Metrics.create ~jobs:4 () in
  Metrics.record m4 ~experiment:"T1" ~seconds:0.3;
  Metrics.write m4 ~path;
  (* jobs=1 entries survive the jobs=4 write; same-jobs entries are
     replaced on a re-run *)
  let m1' = Metrics.create ~jobs:1 () in
  Metrics.record m1' ~experiment:"T1" ~seconds:0.9;
  Metrics.write m1' ~path;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Search_numerics.Json.of_string contents with
  | Ok (Search_numerics.Json.List entries) ->
      check_int "two entries (jobs 1 replaced, jobs 4 kept)" 2
        (List.length entries);
      let seconds_of jobs =
        List.find_map
          (function
            | Search_numerics.Json.Assoc fields
              when (match List.assoc_opt "jobs" fields with
                    | Some (Search_numerics.Json.Number j) ->
                        Float.equal j (float_of_int jobs)
                    | _ -> false)
              -> (
                match List.assoc_opt "seconds" fields with
                | Some (Search_numerics.Json.Number s) -> Some s
                | _ -> None)
            | _ -> None)
          entries
      in
      checkf "jobs=1 replaced by re-run" 0.9 (Option.get (seconds_of 1));
      checkf "jobs=4 kept" 0.3 (Option.get (seconds_of 4))
  | Ok _ -> Alcotest.fail "timings file is not a JSON list"
  | Error e -> Alcotest.fail ("unparsable timings file: " ^ e)

let test_metrics_concurrent_writes () =
  (* two domains hammer the same timings file; the advisory-locked
     read-modify-write must interleave cleanly: the file stays parsable
     and both job tags keep their final entries *)
  let path = Filename.temp_file "metrics" ".json" in
  let writer jobs =
    Domain.spawn (fun () ->
        for round = 1 to 12 do
          let m = Metrics.create ~jobs () in
          Metrics.record m ~experiment:"contended"
            ~seconds:(float_of_int round);
          Metrics.write m ~path
        done)
  in
  let d1 = writer 1 and d4 = writer 4 in
  Domain.join d1;
  Domain.join d4;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (try Sys.remove (path ^ ".lock") with Sys_error _ -> ());
  match Search_numerics.Json.of_string contents with
  | Ok (Search_numerics.Json.List entries) ->
      check_int "one surviving entry per jobs value" 2 (List.length entries);
      let jobs_seen =
        List.filter_map
          (fun e ->
            Option.bind (Search_numerics.Json.member "jobs" e)
              Search_numerics.Json.to_int)
          entries
        |> List.sort_uniq Int.compare
      in
      check_bool "both job tags present" true (jobs_seen = [ 1; 4 ])
  | Ok _ -> Alcotest.fail "timings file is not a JSON list"
  | Error e -> Alcotest.fail ("torn/unparsable timings file: " ^ e)

(* ------------------------------------------------------------------ *)
(* Memo *)

let test_lru_evicts_lru_entry () =
  let cache = Memo.create ~capacity:2 () in
  let f k = Memo.find_or_add cache k (fun () -> k * 10) in
  check_int "a" 10 (f 1);
  check_int "b" 20 (f 2);
  (* touch 1 so 2 becomes the least recently used *)
  check_int "a again (hit)" 10 (f 1);
  check_int "c (evicts 2)" 30 (f 3);
  check_int "a still cached" 10 (f 1);
  (* 2 was evicted: recomputing it counts a fresh miss *)
  check_int "b recomputed" 20 (f 2);
  let s = Memo.stats cache in
  check_int "entries bounded" 2 s.Memo.entries;
  check_int "capacity" 2 s.Memo.capacity;
  check_int "evictions" 2 s.Memo.evictions;
  check_int "hits" 2 s.Memo.hits;
  check_int "misses" 4 s.Memo.misses

let test_lru_rejects_bad_capacity () =
  match Memo.create ~capacity:0 () with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception E.Error (E.Invalid_input _) -> ()

let test_lru_concurrent_consistent () =
  (* a capacity far below the key range forces eviction churn under
     domain contention; values must stay correct throughout *)
  Pool.with_pool ~jobs:8 @@ fun pool ->
  let cache = Memo.create ~capacity:3 () in
  let f k = Memo.find_or_add cache k (fun () -> k * k) in
  let keys = List.concat (List.init 30 (fun _ -> [ 1; 2; 3; 4; 5; 6 ])) in
  let got = Par.parallel_map pool ~f keys in
  List.iter2 (fun k v -> check_int "value" (k * k) v) keys got;
  let s = Memo.stats cache in
  check_bool "entries within capacity" true (s.Memo.entries <= 3);
  check_bool "evictions happened" true (s.Memo.evictions > 0)

(* ------------------------------------------------------------------ *)
(* Pool.stats *)

let test_pool_stats_counts () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let s0 = Pool.stats pool in
  check_int "jobs" 2 s0.Pool.jobs;
  check_int "nothing submitted" 0 s0.Pool.submitted;
  let ps = List.init 10 (fun i -> Pool.async pool (fun () -> i)) in
  List.iteri (fun i p -> check_int "result" i (Pool.await p)) ps;
  let s = Pool.stats pool in
  check_int "submitted" 10 s.Pool.submitted;
  check_int "settled" 10 s.Pool.settled;
  check_int "none pending after await" 0 s.Pool.pending

(* ------------------------------------------------------------------ *)
(* Metrics history *)

let test_metrics_history_appends () =
  let path = Filename.temp_file "history" ".jsonl" in
  Sys.remove path;
  let append run seconds =
    let m = Metrics.create ~jobs:2 () in
    Metrics.record m ~experiment:"serve/wall" ~seconds;
    Metrics.append_history m ~path ~run
  in
  append "serve-load" 1.5;
  append "serve-load" 1.25;
  let lines = history_lines path in
  check_int "two runs accumulated" 2 (List.length lines);
  List.iter
    (fun line ->
      check_bool "tagged with the run name" true
        (match Search_numerics.Json.member "run" line with
        | Some (Search_numerics.Json.String s) -> String.equal s "serve-load"
        | _ -> false);
      check_bool "has entries" true
        (Option.is_some (Search_numerics.Json.member "entries" line)))
    lines;
  Sys.remove path;
  (try Sys.remove (path ^ ".lock") with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)

let tc name speed fn = Alcotest.test_case name speed fn

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          tc "await returns the value" `Quick test_pool_await_value;
          tc "results keep submission order" `Quick test_pool_ordering;
          tc "exceptions propagate to await" `Quick
            test_pool_exception_propagation;
          tc "nested submissions don't deadlock" `Quick
            test_pool_nested_submit;
          tc "shutdown is idempotent and rejects new work" `Quick
            test_pool_shutdown_rejects;
          tc "shutdown fails promises still pending" `Quick
            test_pool_shutdown_fails_pending;
          tc "a raising task does not wedge its siblings" `Quick
            test_pool_exception_does_not_wedge_siblings;
        ] );
      ( "par",
        [
          tc "parallel_map = List.map on the T1 grid" `Quick
            test_parallel_map_t1;
          tc "parallel_map = List.map on the T3 grid" `Quick
            test_parallel_map_t3;
          tc "mapi keeps input positions" `Quick test_parallel_mapi;
        ] );
      ( "shard",
        [
          tc "split-tree leaves are reproducible" `Quick
            test_shard_prngs_independent_of_jobs;
          tc "grid2 is row-major" `Quick test_grid2_row_major;
          tc "stochastic estimate identical at jobs 1 vs 8" `Quick
            test_sharded_stochastic_jobs_invariant;
        ] );
      ( "memo.lru",
        [
          tc "evicts the least recently used" `Quick
            test_lru_evicts_lru_entry;
          tc "rejects capacity < 1" `Quick test_lru_rejects_bad_capacity;
          tc "consistent under eviction churn and contention" `Quick
            test_lru_concurrent_consistent;
        ] );
      ( "pool.stats",
        [ tc "counts submitted and settled jobs" `Quick test_pool_stats_counts ] );
      ( "metrics.history",
        [
          tc "append accumulates runs" `Quick test_metrics_history_appends;
        ] );
      ( "metrics",
        [
          tc "records entries and totals" `Quick
            test_metrics_record_and_total;
          tc "write merges across job counts" `Quick
            test_metrics_write_merges;
          tc "concurrent writers do not clobber" `Quick
            test_metrics_concurrent_writes;
        ] );
    ]
