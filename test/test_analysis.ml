(* Tests for the determinism & numeric-safety lint pass: per-rule
   positive/negative fixtures through [Driver.lint_string], the finding
   JSON round-trip, the allowlist parser, and byte-identical reports at
   different pool sizes. *)

module Finding = Search_analysis.Finding
module Allow = Search_analysis.Allow
module Rules = Search_analysis.Rules
module Driver = Search_analysis.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let rules_hit ?rules ?has_mli ~path src =
  Driver.lint_string ?rules ?has_mli ~path src
  |> List.map (fun f -> f.Finding.rule)
  |> List.sort_uniq String.compare

let hits rule ?has_mli ~path src =
  List.exists (String.equal rule) (rules_hit ?has_mli ~path src)

let test_poly_compare () =
  check_bool "float (=) in lib" true
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let eq (a : float) b = a = b");
  check_bool "bare compare" true
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let c x y = compare x y");
  check_bool "compare via min" true
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let m a = min a 1.5");
  check_bool "immediate operand ok" false
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let z n = n = 0");
  check_bool "Int.equal ok" false
    (hits "poly-compare" ~path:"lib/sim/fix.ml" "let e a b = Int.equal a b");
  check_bool "local compare definition ok" false
    (hits "poly-compare" ~path:"lib/sim/fix.ml"
       "let compare a b = Int.compare a b\nlet user x y = compare x y");
  (* outside lib/ only float-smelling or structured operands count *)
  check_bool "ident (=) in tests ok" false
    (hits "poly-compare" ~path:"test/fix.ml" "let eq a b = a = b");
  check_bool "float (=) in tests flagged" true
    (hits "poly-compare" ~path:"test/fix.ml" "let eq a = a = 1.5")

let test_nondet () =
  check_bool "Random" true
    (hits "nondet" ~path:"lib/sim/fix.ml" "let r () = Random.int 5");
  check_bool "Sys.time" true
    (hits "nondet" ~path:"lib/sim/fix.ml" "let t () = Sys.time ()");
  check_bool "Hashtbl.hash" true
    (hits "nondet" ~path:"lib/sim/fix.ml" "let h x = Hashtbl.hash x");
  check_bool "pure code ok" false
    (hits "nondet" ~path:"lib/sim/fix.ml" "let r () = 5")

let test_float_hygiene () =
  check_bool "nan literal" true
    (hits "float-hygiene" ~path:"lib/sim/fix.ml" "let x = nan");
  check_bool "unguarded float_of_string" true
    (hits "float-hygiene" ~path:"lib/sim/fix.ml"
       "let f s = float_of_string s");
  check_bool "float_of_string_opt ok" false
    (hits "float-hygiene" ~path:"lib/sim/fix.ml"
       "let f s = float_of_string_opt s")

let test_lock_discipline () =
  check_bool "bare lock" true
    (hits "lock-discipline" ~path:"lib/exec/fix.ml" "let f m = Mutex.lock m");
  check_bool "bare unlock" true
    (hits "lock-discipline" ~path:"lib/exec/fix.ml"
       "let f m = Mutex.unlock m");
  check_bool "Mutex.protect ok" false
    (hits "lock-discipline" ~path:"lib/exec/fix.ml"
       "let f m g = Mutex.protect m g")

let test_unsafe_ops () =
  check_bool "Obj.magic" true
    (hits "unsafe-ops" ~path:"lib/sim/fix.ml" "let f x = Obj.magic x");
  check_bool "unsafe_get" true
    (hits "unsafe-ops" ~path:"lib/sim/fix.ml"
       "let f a = Array.unsafe_get a 0");
  check_bool "%identity external" true
    (hits "unsafe-ops" ~path:"lib/sim/fix.ml"
       "external id : int -> int = \"%identity\"");
  check_bool "safe get ok" false
    (hits "unsafe-ops" ~path:"lib/sim/fix.ml" "let f a = Array.get a 0")

let test_output_discipline () =
  check_bool "print_string in lib" true
    (hits "output-discipline" ~path:"lib/sim/fix.ml"
       "let f () = print_string \"x\"");
  check_bool "Format.printf in lib" true
    (hits "output-discipline" ~path:"lib/sim/fix.ml"
       "let f () = Format.printf \"x\"");
  check_bool "printing in bin ok" false
    (hits "output-discipline" ~path:"bin/fix.ml"
       "let f () = print_string \"x\"");
  check_bool "formatter-passing ok" false
    (hits "output-discipline" ~path:"lib/sim/fix.ml"
       "let f ppf = Format.fprintf ppf \"x\"")

let test_mli_coverage () =
  check_bool "lib module without mli" true
    (hits "mli-coverage" ~has_mli:false ~path:"lib/sim/fix.ml" "let x = 1");
  check_bool "lib module with mli ok" false
    (hits "mli-coverage" ~has_mli:true ~path:"lib/sim/fix.ml" "let x = 1");
  check_bool "test module without mli ok" false
    (hits "mli-coverage" ~has_mli:false ~path:"test/fix.ml" "let x = 1")

let test_closed_variant_wildcard () =
  check_bool "catch-all over closed variant" true
    (hits "closed-variant-wildcard" ~path:"lib/sim/fix.ml"
       "let f k = match k with Fault.Crash -> 1 | _ -> 2");
  check_bool "exhaustive match ok" false
    (hits "closed-variant-wildcard" ~path:"lib/sim/fix.ml"
       "let f k = match k with Fault.Crash -> 1 | Fault.Byzantine -> 2");
  check_bool "try with is exempt" false
    (hits "closed-variant-wildcard" ~path:"lib/sim/fix.ml"
       "let f g = try g () with Not_found -> 1 | _ -> 2")

let test_global_mutable_state () =
  check_bool "top-level ref" true
    (hits "global-mutable-state" ~path:"lib/sim/fix.ml" "let cache = ref 0");
  check_bool "top-level Hashtbl" true
    (hits "global-mutable-state" ~path:"lib/sim/fix.ml"
       "let tbl = Hashtbl.create 16");
  check_bool "local ref ok" false
    (hits "global-mutable-state" ~path:"lib/sim/fix.ml"
       "let count xs = let n = ref 0 in List.iter (fun _ -> incr n) xs; !n");
  check_bool "top-level mutex ok" false
    (hits "global-mutable-state" ~path:"lib/sim/fix.ml"
       "let m = Mutex.create ()")

let test_parse_error_is_a_finding () =
  let findings = Driver.lint_string ~path:"lib/sim/fix.ml" "let let let" in
  check_bool "syntax error reported" true
    (List.exists (fun f -> String.equal f.Finding.rule "parse") findings)

let test_rule_selection () =
  let src = "let eq (a : float) b = a = b\nlet r () = Random.int 5" in
  let only = rules_hit ~rules:[ "nondet" ] ~path:"lib/sim/fix.ml" src in
  check_bool "restricted to nondet" true
    (List.for_all (String.equal "nondet") only && only <> [])

(* ------------------------------------------------------------------ *)
(* Finding JSON round-trip *)

let test_finding_json_roundtrip () =
  let findings =
    Driver.lint_string ~has_mli:false ~path:"lib/sim/fix.ml"
      "let eq (a : float) b = a = b\nlet r () = Random.bool ()\nlet x = nan"
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

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let make_fixture_root () =
  let root = Filename.temp_file "faulty_search_lint" ".d" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  write_file
    (Filename.concat root "lib/bad.ml")
    "let eq (a : float) b = a = b\nlet t () = Sys.time ()\n";
  write_file (Filename.concat root "lib/ok.ml") "let add a b = a + b\n";
  write_file (Filename.concat root "lib/ok.mli") "val add : int -> int -> int\n";
  root

let test_driver_jobs_invariance () =
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
  let root = make_fixture_root () in
  write_file
    (Filename.concat root "lint.allow")
    "poly-compare lib/bad.ml\nnondet lib/bad.ml\nmli-coverage lib/bad.ml\n";
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
          Alcotest.test_case "parse errors" `Quick test_parse_error_is_a_finding;
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
