(* Tests for the determinism & numeric-safety lint pass: per-rule
   positive/negative compiled fixtures through [Driver.run], the
   missing/stale artefact contract, the finding JSON round-trip, the
   allowlist parser, and byte-identical reports at different pool
   sizes. *)

module Finding = Search_analysis.Finding
module Allow = Search_analysis.Allow
module Driver = Search_analysis.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixtures: each test compiles one tree (one module per case, so the
   cases cannot mask each other) and lints it once. *)

let with_ocamlc = Fixture.with_ocamlc

let lint ?rules files =
  let root = Fixture.compiled_tree files in
  (Driver.run ~jobs:1 ?rules ~root ()).Driver.findings

(* [hits findings rule path]: did [rule] fire in [path]? *)
let hits findings rule path =
  List.exists
    (fun f -> String.equal f.Finding.rule rule && String.equal f.Finding.file path)
    findings

let test_poly_compare () =
  with_ocamlc @@ fun () ->
  let fs =
    lint
      [
        ("lib/sim/float_eq.ml", "let eq (a : float) b = a = b\n");
        ("lib/sim/bare_compare.ml", "let c x y = compare x y\n");
        ("lib/sim/float_min.ml", "let m a = min a 1.5\n");
        ("lib/sim/int_eq.ml", "let z n = n = 0\n");
        ("lib/sim/typed_eq.ml", "let e a b = Int.equal a b\n");
        ( "lib/sim/local_compare.ml",
          "let compare a b = Int.compare a b\nlet user x y = compare x y\n" );
        ("test/poly_eq.ml", "let eq a b = a = b\n");
        ("test/float_lit_eq.ml", "let eq a = a = 1.5\n");
      ]
  in
  let hit = hits fs "poly-compare" in
  check_bool "float (=) in lib" true (hit "lib/sim/float_eq.ml");
  check_bool "bare compare" true (hit "lib/sim/bare_compare.ml");
  check_bool "compare via min" true (hit "lib/sim/float_min.ml");
  check_bool "immediate operand ok" false (hit "lib/sim/int_eq.ml");
  check_bool "Int.equal ok" false (hit "lib/sim/typed_eq.ml");
  check_bool "local compare definition ok" false (hit "lib/sim/local_compare.ml");
  (* outside lib/ only float-typed or structured operands count *)
  check_bool "ident (=) in tests ok" false (hit "test/poly_eq.ml");
  check_bool "float (=) in tests flagged" true (hit "test/float_lit_eq.ml")

let test_nondet () =
  with_ocamlc @@ fun () ->
  let fs =
    lint
      [
        ("lib/sim/rand.ml", "let r () = Random.int 5\n");
        ("lib/sim/systime.ml", "let t () = Sys.time ()\n");
        ("lib/sim/hash.ml", "let h x = Hashtbl.hash x\n");
        ("lib/sim/pure.ml", "let r () = 5\n");
      ]
  in
  let hit = hits fs "nondet" in
  check_bool "Random" true (hit "lib/sim/rand.ml");
  check_bool "Sys.time" true (hit "lib/sim/systime.ml");
  check_bool "Hashtbl.hash" true (hit "lib/sim/hash.ml");
  check_bool "pure code ok" false (hit "lib/sim/pure.ml")

let test_float_hygiene () =
  with_ocamlc @@ fun () ->
  let fs =
    lint
      [
        ("lib/sim/nan_lit.ml", "let x = nan\n");
        ("lib/sim/parse_float.ml", "let f s = float_of_string s\n");
        ("lib/sim/parse_float_opt.ml", "let f s = float_of_string_opt s\n");
      ]
  in
  let hit = hits fs "float-hygiene" in
  check_bool "nan literal" true (hit "lib/sim/nan_lit.ml");
  check_bool "unguarded float_of_string" true (hit "lib/sim/parse_float.ml");
  check_bool "float_of_string_opt ok" false (hit "lib/sim/parse_float_opt.ml")

let test_lock_discipline () =
  with_ocamlc @@ fun () ->
  let fs =
    lint
      [
        ("lib/exec/bare_lock.ml", "let f m = Mutex.lock m\n");
        ("lib/exec/bare_unlock.ml", "let f m = Mutex.unlock m\n");
        ("lib/exec/protected.ml", "let f m g = Mutex.protect m g\n");
      ]
  in
  let hit = hits fs "lock-discipline" in
  check_bool "bare lock" true (hit "lib/exec/bare_lock.ml");
  check_bool "bare unlock" true (hit "lib/exec/bare_unlock.ml");
  check_bool "Mutex.protect ok" false (hit "lib/exec/protected.ml")

let test_unsafe_ops () =
  with_ocamlc @@ fun () ->
  let fs =
    lint
      [
        ("lib/sim/magic.ml", "let f x = Obj.magic x\n");
        ("lib/sim/unsafe.ml", "let f a = Array.unsafe_get a 0\n");
        ("lib/sim/ident_ext.ml", "external id : int -> int = \"%identity\"\n");
        ("lib/sim/ident_sig.mli", "external id : int -> int = \"%identity\"\n");
        ("lib/sim/ident_sig.ml", "external id : int -> int = \"%identity\"\n");
        ("lib/sim/safe_get.ml", "let f a = Array.get a 0\n");
      ]
  in
  let hit = hits fs "unsafe-ops" in
  check_bool "Obj.magic" true (hit "lib/sim/magic.ml");
  check_bool "unsafe_get" true (hit "lib/sim/unsafe.ml");
  check_bool "%identity external" true (hit "lib/sim/ident_ext.ml");
  check_bool "%identity external in an interface" true
    (hit "lib/sim/ident_sig.mli");
  check_bool "safe get ok" false (hit "lib/sim/safe_get.ml")

let test_output_discipline () =
  with_ocamlc @@ fun () ->
  let fs =
    lint
      [
        ("lib/sim/prints.ml", "let f () = print_string \"x\"\n");
        ("lib/sim/formats.ml", "let f () = Format.printf \"x\"\n");
        ("bin/cli_prints.ml", "let f () = print_string \"x\"\n");
        ("lib/sim/formatter.ml", "let f ppf = Format.fprintf ppf \"x\"\n");
      ]
  in
  let hit = hits fs "output-discipline" in
  check_bool "print_string in lib" true (hit "lib/sim/prints.ml");
  check_bool "Format.printf in lib" true (hit "lib/sim/formats.ml");
  check_bool "printing in bin ok" false (hit "bin/cli_prints.ml");
  check_bool "formatter-passing ok" false (hit "lib/sim/formatter.ml")

let test_mli_coverage () =
  with_ocamlc @@ fun () ->
  let fs =
    lint
      [
        ("lib/sim/no_mli.ml", "let x = 1\n");
        ("lib/sim/with_mli.mli", "val x : int\n");
        ("lib/sim/with_mli.ml", "let x = 1\n");
        ("test/test_no_mli.ml", "let x = 1\n");
      ]
  in
  let hit = hits fs "mli-coverage" in
  check_bool "lib module without mli" true (hit "lib/sim/no_mli.ml");
  check_bool "lib module with mli ok" false (hit "lib/sim/with_mli.ml");
  check_bool "test module without mli ok" false (hit "test/test_no_mli.ml")

let test_closed_variant_wildcard () =
  with_ocamlc @@ fun () ->
  let fs =
    lint
      [
        ("lib/sim/fault.ml", "type t = Crash | Byzantine\n");
        ( "lib/sim/wild.ml",
          "let f k = match k with Fault.Crash -> 1 | _ -> 2\n" );
        ( "lib/sim/wild_fun.ml",
          "let f = function Fault.Crash -> 1 | _ -> 2\n" );
        ( "lib/sim/exhaustive.ml",
          "let f k = match k with Fault.Crash -> 1 | Fault.Byzantine -> 2\n" );
        ( "lib/sim/try_with.ml",
          "let f g = try g () with Not_found -> 1 | _ -> 2\n" );
      ]
  in
  let hit = hits fs "closed-variant-wildcard" in
  check_bool "catch-all over closed variant" true (hit "lib/sim/wild.ml");
  check_bool "catch-all in a function" true (hit "lib/sim/wild_fun.ml");
  check_bool "exhaustive match ok" false (hit "lib/sim/exhaustive.ml");
  check_bool "try with is exempt" false (hit "lib/sim/try_with.ml")

let test_global_mutable_state () =
  with_ocamlc @@ fun () ->
  let fs =
    lint
      [
        ("lib/sim/top_ref.ml", "let cache = ref 0\n");
        ( "lib/sim/top_tbl.ml",
          "let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\n" );
        ( "lib/sim/local_ref.ml",
          "let count xs = let n = ref 0 in List.iter (fun _ -> incr n) xs; !n\n"
        );
        ("lib/sim/top_mutex.ml", "let m = Mutex.create ()\n");
      ]
  in
  let hit = hits fs "global-mutable-state" in
  check_bool "top-level ref" true (hit "lib/sim/top_ref.ml");
  check_bool "top-level Hashtbl" true (hit "lib/sim/top_tbl.ml");
  check_bool "local ref ok" false (hit "lib/sim/local_ref.ml");
  check_bool "top-level mutex ok" false (hit "lib/sim/top_mutex.ml")

(* The artefacts are the lint's only input, so a source without one, or
   with one compiled from other bytes, must fail loudly (exit 3) and
   name the file rather than shrink the report. *)
let fresh_tree () =
  Fixture.compiled_tree
    [
      ("lib/sim/kept.mli", "val x : int\n");
      ("lib/sim/kept.ml", "let x = 1\n");
      ("lib/sim/edited.mli", "val y : int\n");
      ("lib/sim/edited.ml", "let y = 2\n");
    ]

let internal root rule =
  let o = Driver.run ~jobs:1 ~root () in
  check_int "internal exit code" 3 (Driver.exit_code o);
  List.filter_map
    (fun f ->
      if String.equal f.Finding.rule rule then Some f.Finding.file else None)
    o.Driver.findings

let test_cmt_missing () =
  with_ocamlc @@ fun () ->
  let root = fresh_tree () in
  check_int "fresh tree is clean" 0
    (Driver.exit_code (Driver.run ~jobs:1 ~rules:[] ~root ()));
  Sys.remove (Filename.concat root "lib/sim/edited.cmt");
  Alcotest.(check (list string))
    "names the source" [ "lib/sim/edited.ml" ] (internal root "cmt-missing")

let test_cmt_stale () =
  with_ocamlc @@ fun () ->
  let root = fresh_tree () in
  Fixture.write_file
    (Filename.concat root "lib/sim/edited.ml")
    "let y = 3\n";
  Alcotest.(check (list string))
    "names the source" [ "lib/sim/edited.ml" ] (internal root "cmt-stale")

let test_rule_selection () =
  with_ocamlc @@ fun () ->
  let only =
    lint ~rules:[ "nondet" ]
      [ ("lib/sim/mixed.ml", "let eq (a : float) b = a = b\nlet r () = Random.int 5\n") ]
  in
  check_bool "restricted to nondet" true
    (List.for_all (fun f -> String.equal f.Finding.rule "nondet") only
    && only <> [])

(* ------------------------------------------------------------------ *)
(* Finding JSON round-trip *)

let test_finding_json_roundtrip () =
  with_ocamlc @@ fun () ->
  let findings =
    lint
      [
        ( "lib/sim/several.ml",
          "let eq (a : float) b = a = b\nlet r () = Random.bool ()\nlet x = nan\n" );
      ]
  in
  check_bool "fixture produced findings" true (List.length findings >= 3);
  List.iter
    (fun f ->
      match Finding.of_json (Finding.to_json f) with
      | Ok f' -> check_int "roundtrip exact" 0 (Finding.compare f f')
      | Error e -> Alcotest.failf "of_json failed: %s" e)
    findings

(* ------------------------------------------------------------------ *)
(* Allowlist *)

let test_allow_parse () =
  match
    Allow.parse
      "# header comment\n\
       poly-compare lib/a.ml # why it is fine\n\
       * lib/b.ml\n\n"
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      check_int "two entries" 2 (List.length (Allow.entries t));
      check_bool "listed pair permitted" true
        (Allow.permits t ~rule:"poly-compare" ~file:"lib/a.ml");
      check_bool "other rule same file" false
        (Allow.permits t ~rule:"nondet" ~file:"lib/a.ml");
      check_bool "wildcard rule" true
        (Allow.permits t ~rule:"nondet" ~file:"lib/b.ml");
      check_bool "unlisted file" false
        (Allow.permits t ~rule:"nondet" ~file:"lib/c.ml")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || at (i + 1))
  in
  at 0

let test_allow_rejects_garbage () =
  match Allow.parse "only-one-token\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
      check_bool "error names the line" true (contains msg "lint.allow:1")

let test_allow_unreadable () =
  let dir = Filename.temp_file "faulty_search_allow" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  match Allow.load dir with
  | Ok _ -> Alcotest.fail "a directory loaded as an allowlist"
  | Error msg ->
      check_bool "error names the path" true (contains msg (dir ^ ": "))

(* ------------------------------------------------------------------ *)
(* Driver determinism on a real (temporary) tree *)

let make_fixture_root () =
  Fixture.compiled_tree
    [
      ("lib/bad.ml", "let eq (a : float) b = a = b\nlet t () = Sys.time ()\n");
      ("lib/ok.mli", "val add : int -> int -> int\n");
      ("lib/ok.ml", "let add a b = a + b\n");
    ]

let test_driver_jobs_invariance () =
  with_ocamlc @@ fun () ->
  let root = make_fixture_root () in
  let o1 = Driver.run ~jobs:1 ~root () in
  let o4 = Driver.run ~jobs:4 ~root () in
  check_bool "found the planted violations" true
    (List.length o1.Driver.findings >= 3);
  check_string "text report byte-identical" (Driver.render_text o1)
    (Driver.render_text o4);
  check_string "json report byte-identical" (Driver.render_json o1)
    (Driver.render_json o4)

let test_driver_allowlist_filters () =
  with_ocamlc @@ fun () ->
  let root = make_fixture_root () in
  Fixture.write_file
    (Filename.concat root "lint.allow")
    "poly-compare lib/bad.ml\nnondet lib/bad.ml\nmli-coverage lib/bad.ml\n\
     deep-nondet lib/bad.ml\n";
  match Driver.load_allow ~root with
  | Error e -> Alcotest.failf "load_allow: %s" e
  | Ok allow ->
      let out = Driver.run ~jobs:1 ~allow ~root () in
      check_int "everything suppressed" 0 (List.length out.Driver.findings);
      check_bool "suppressions counted" true (out.Driver.suppressed >= 3)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "rules",
        [
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "nondet" `Quick test_nondet;
          Alcotest.test_case "float-hygiene" `Quick test_float_hygiene;
          Alcotest.test_case "lock-discipline" `Quick test_lock_discipline;
          Alcotest.test_case "unsafe-ops" `Quick test_unsafe_ops;
          Alcotest.test_case "output-discipline" `Quick test_output_discipline;
          Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
          Alcotest.test_case "closed-variant-wildcard" `Quick
            test_closed_variant_wildcard;
          Alcotest.test_case "global-mutable-state" `Quick
            test_global_mutable_state;
          Alcotest.test_case "missing artefact" `Quick test_cmt_missing;
          Alcotest.test_case "stale artefact" `Quick test_cmt_stale;
          Alcotest.test_case "rule selection" `Quick test_rule_selection;
        ] );
      ( "finding",
        [ Alcotest.test_case "json roundtrip" `Quick test_finding_json_roundtrip ] );
      ( "allow",
        [
          Alcotest.test_case "parse + permits" `Quick test_allow_parse;
          Alcotest.test_case "rejects garbage" `Quick test_allow_rejects_garbage;
          Alcotest.test_case "unreadable file" `Quick test_allow_unreadable;
        ] );
      ( "driver",
        [
          Alcotest.test_case "jobs invariance" `Quick
            test_driver_jobs_invariance;
          Alcotest.test_case "allowlist filtering" `Quick
            test_driver_allowlist_filters;
        ] );
    ]
