(* Tests for the property-based checking harness: generator determinism
   and validity, case JSON round-trips, the shrinker, the fuzz driver's
   jobs-invariance, and replay of the checked-in counterexample corpus. *)

module Json = Search_numerics.Json
module Case = Search_check.Case
module Gen = Search_check.Gen
module Invariant = Search_check.Invariant
module Shrink = Search_check.Shrink
module Corpus = Search_check.Corpus
module Fuzz = Search_check.Fuzz

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Gen *)

let test_gen_cases_valid () =
  let cases = Gen.cases ~seed:7 ~count:50 in
  check_int "count" 50 (List.length cases);
  List.iteri
    (fun i c ->
      check_int "ids are stream positions" i c.Case.id;
      match Case.validate c with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "generated case invalid: %s@\n%s" msg
            (Search_numerics.Json.to_string (Case.to_json c)))
    cases

let test_gen_deterministic () =
  let a = Gen.cases ~seed:42 ~count:30 in
  let b = Gen.cases ~seed:42 ~count:30 in
  check_bool "same seed, same stream" true (List.for_all2 Case.equal a b);
  (* a prefix of a longer run is the shorter run: case [i] depends only
     on (seed, i), never on count *)
  let long = Gen.cases ~seed:42 ~count:60 in
  let prefix = List.filteri (fun i _ -> i < 30) long in
  check_bool "prefix-stable" true (List.for_all2 Case.equal a prefix);
  let other = Gen.cases ~seed:43 ~count:30 in
  check_bool "different seed, different stream" false
    (List.for_all2 Case.equal a other)

(* ------------------------------------------------------------------ *)
(* Case JSON *)

let test_case_json_roundtrip () =
  (* through the full string codec, not just the value tree: corpus
     files live on disk, so the float printer must round-trip exactly *)
  List.iter
    (fun c ->
      let s = Json.to_string ~pretty:true (Case.to_json c) in
      match Json.of_string s with
      | Error msg -> Alcotest.failf "reparse failed: %s" msg
      | Ok json -> (
          match Case.of_json json with
          | Error msg -> Alcotest.failf "of_json failed: %s" msg
          | Ok c' ->
              check_bool "round-trips exactly" true (Case.equal c c')))
    (Gen.cases ~seed:11 ~count:40)

let test_case_json_rejects_invalid () =
  let c = List.hd (Gen.cases ~seed:1 ~count:1) in
  let broken = Case.to_json { c with Case.f = c.Case.k } in
  check_bool "of_json validates" true
    (Result.is_error (Case.of_json broken))

(* ------------------------------------------------------------------ *)
(* Shrink *)

(* The cases [minimize] asks [still_fails] about, when none fails: its
   whole candidate list for [c], in order. *)
let candidates c =
  let asked = ref [] in
  ignore
    (Shrink.minimize
       ~still_fails:(fun c' ->
         asked := c' :: !asked;
         false)
       c);
  List.rev !asked

let test_shrink_candidates_valid () =
  List.iter
    (fun c ->
      List.iter
        (fun c' ->
          check_bool "candidate valid" true (Case.valid c');
          check_bool "candidate differs" false (Case.equal c c'))
        (candidates c))
    (Gen.cases ~seed:5 ~count:25)

let test_shrink_minimizes () =
  (* a predicate that only looks at k: the shrinker should walk k down
     to the predicate's boundary and strip everything else *)
  let c0 =
    {
      Case.id = 0;
      m = 4;
      k = 5;
      f = 1;
      horizon = 80.;
      alpha_scale = 1.2;
      lambda_frac = 0.7;
      targets = [ (0, 3.); (2, 10.); (1, 40.) ];
      turn_seed = 99;
    }
  in
  check_bool "start valid" true (Case.valid c0);
  let still_fails c = c.Case.k >= 3 in
  let c = Shrink.minimize ~still_fails c0 in
  check_bool "result valid" true (Case.valid c);
  check_bool "result still fails" true (still_fails c);
  check_int "k at the boundary" 3 c.Case.k;
  check_int "single target" 1 (List.length c.Case.targets)

let test_shrink_minimal_fixpoint () =
  let still_fails _ = true in
  let c0 = List.hd (Gen.cases ~seed:9 ~count:1) in
  let c = Shrink.minimize ~still_fails c0 in
  (* with an always-failing predicate the result is a local minimum:
     no candidate of it passes the validity filter and differs *)
  check_bool "fixpoint" true (candidates c = [])

(* ------------------------------------------------------------------ *)
(* Fuzz *)

let fuzz_cases = 30

let test_fuzz_smoke () =
  let outcome = Fuzz.run ~jobs:1 ~seed:42 ~cases:fuzz_cases () in
  check_int "seed recorded" 42 outcome.Fuzz.seed;
  check_int "cases recorded" fuzz_cases outcome.Fuzz.cases;
  if outcome.Fuzz.failures <> [] then
    Alcotest.failf "unexpected invariant violations:@\n%s"
      (Fuzz.report outcome)

let test_fuzz_jobs_invariance () =
  let r1 = Fuzz.report (Fuzz.run ~jobs:1 ~seed:42 ~cases:fuzz_cases ()) in
  let r4 = Fuzz.report (Fuzz.run ~jobs:4 ~seed:42 ~cases:fuzz_cases ()) in
  check_string "report identical at jobs 1 and 4" r1 r4;
  let r1' = Fuzz.report (Fuzz.run ~jobs:1 ~seed:42 ~cases:fuzz_cases ()) in
  check_string "report identical across runs" r1 r1'

(* ------------------------------------------------------------------ *)
(* Corpus replay *)

let test_corpus_replay () =
  (* the checked-in counterexamples (shrunk cases from bugs fixed during
     development) must replay clean: a fixed bug stays fixed *)
  let files = Corpus.files ~dir:"corpus" in
  check_bool "corpus entries present" true (files <> []);
  List.iter
    (fun path ->
      match Corpus.replay_file path with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" path msg)
    files

let test_corpus_save_load_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "check-corpus" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let c = List.hd (Gen.cases ~seed:3 ~count:1) in
  let violations =
    [ { Invariant.invariant = "engine.fixed_vs_worst"; detail = "demo" } ]
  in
  let path = Corpus.save ~dir c ~violations in
  let path' = Corpus.save ~dir c ~violations in
  check_string "content-addressed name is stable" path path';
  (match Corpus.load_file path with
  | Ok c' -> check_bool "loads back" true (Case.equal c c')
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  Sys.remove path

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "check"
    [
      ( "gen",
        [
          tc "cases valid" `Quick test_gen_cases_valid;
          tc "deterministic" `Quick test_gen_deterministic;
        ] );
      ( "case",
        [
          tc "json roundtrip" `Quick test_case_json_roundtrip;
          tc "json validates" `Quick test_case_json_rejects_invalid;
        ] );
      ( "shrink",
        [
          tc "candidates valid" `Quick test_shrink_candidates_valid;
          tc "minimizes to boundary" `Quick test_shrink_minimizes;
          tc "fixpoint" `Quick test_shrink_minimal_fixpoint;
        ] );
      ( "fuzz",
        [
          tc "smoke" `Quick test_fuzz_smoke;
          tc "jobs invariance" `Quick test_fuzz_jobs_invariance;
        ] );
      ( "corpus",
        [
          tc "replay checked-in entries" `Quick test_corpus_replay;
          tc "save/load roundtrip" `Quick test_corpus_save_load_roundtrip;
        ] );
    ]
