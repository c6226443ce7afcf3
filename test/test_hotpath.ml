(* Tests for the hot-path performance analysis family: fixture trees
   compiled with ocamlc -bin-annot, driven through [Driver.run] with
   the report restricted to the two hot-path rules.

   Covers the two advertised detectors — interprocedural allocation
   budgets for [@hot] roots with their witness chains, and blocking-call
   detection from [@event_loop] select loops — plus the classifier
   exemptions (raise paths, unboxable local refs), the [@nonblocking]
   barrier, the lint.budget contract (default-zero, audited counts,
   stale entries) and the GitHub escaper round-trip. *)

module Finding = Search_analysis.Finding
module Budget = Search_analysis.Budget
module Driver = Search_analysis.Driver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let make_tree = Fixture.make_tree
let compile = Fixture.compile
let with_ocamlc = Fixture.with_ocamlc
let by_rule = Fixture.by_rule
let contains = Fixture.contains
let hotpath_rules = [ "hotpath-alloc"; "hotpath-blocking" ]
let collect ?budget root = Fixture.collect ~rules:hotpath_rules ?budget root

let budget_of_string s =
  match Budget.parse s with
  | Ok b -> b
  | Error msg -> Alcotest.failf "budget parse: %s" msg

(* A stub Unix module: the blocking rule matches display names, so a
   local lib/unix.ml exercises it without linking the real library. *)
let unix_stub =
  ( "lib/unix.ml",
    "let sleep (_ : int) = ()\n\
     let select _ r w e (_ : float) = ignore e; (r, w, ([] : int list))\n" )

(* ------------------------------------------------------------------ *)

let test_alloc_chain () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [ ("lib/k.ml", "let helper x = [ x ]\nlet[@hot] kernel x = helper x\n") ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/k.ml" ]);
  let findings, units, _ = collect root in
  check_int "one unit" 1 units;
  match by_rule "hotpath-alloc" findings with
  | [ f ] ->
      check_string "at the allocation site" "lib/k.ml" f.Finding.file;
      check_int "first line" 1 f.Finding.line;
      check_bool "witness chain" true
        (contains f.Finding.message
           "K.kernel -> K.helper -> <variant allocation at lib/k.ml:1>");
      check_bool "count and budget" true
        (contains f.Finding.message "1 reachable site, budget 0")
  | fs -> Alcotest.failf "expected one hotpath-alloc, got %d" (List.length fs)

let test_alloc_within_budget () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [ ("lib/k.ml", "let helper x = [ x ]\nlet[@hot] kernel x = helper x\n") ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/k.ml" ]);
  let budget = budget_of_string "K.kernel 1  # audited: output cons\n" in
  let findings, _, stale = collect ~budget root in
  check_int "no findings" 0 (List.length (by_rule "hotpath-alloc" findings));
  check_int "entry not stale" 0 (List.length stale)

let test_alloc_exemptions () =
  with_ocamlc @@ fun () ->
  (* an unboxable local ref and a raise-path allocation are both
     exempt: the kernel holds a zero budget *)
  let root =
    make_tree
      [
        ( "lib/z.ml",
          "let[@hot] zero a =\n\
          \  let acc = ref 0. in\n\
          \  for i = 0 to Array.length a - 1 do acc := !acc +. a.(i) done;\n\
          \  if not (!acc >= 0.) then invalid_arg (string_of_float !acc);\n\
          \  !acc\n" );
      ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/z.ml" ]);
  let findings, _, _ = collect root in
  check_int "zero-alloc despite ref and raise path" 0
    (List.length (by_rule "hotpath-alloc" findings))

let test_blocking_chain () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [
        unix_stub;
        ( "lib/loop.ml",
          "let handler () = Unix.sleep 1\n\
           let[@event_loop] run () = handler ()\n" );
      ]
  in
  check_bool "fixtures compile" true
    (compile root [ "lib/unix.ml"; "lib/loop.ml" ]);
  let findings, _, _ = collect root in
  match by_rule "hotpath-blocking" findings with
  | [ f ] ->
      check_string "at the blocking reference" "lib/loop.ml" f.Finding.file;
      check_int "handler line" 1 f.Finding.line;
      check_bool "witness chain" true
        (contains f.Finding.message "Loop.run -> Loop.handler -> Unix.sleep")
  | fs ->
      Alcotest.failf "expected one hotpath-blocking, got %d" (List.length fs)

let test_nonblocking_barrier () =
  with_ocamlc @@ fun () ->
  (* the audited handler is not entered; the root's own select is the
     loop's wait and stays exempt *)
  let root =
    make_tree
      [
        unix_stub;
        ( "lib/loop.ml",
          "let[@nonblocking] handler () = Unix.sleep 1\n\
           let[@event_loop] run () =\n\
          \  handler ();\n\
          \  ignore (Unix.select [] [] [] 0.05)\n" );
      ]
  in
  check_bool "fixtures compile" true
    (compile root [ "lib/unix.ml"; "lib/loop.ml" ]);
  let findings, _, _ = collect root in
  check_int "no blocking findings" 0
    (List.length (by_rule "hotpath-blocking" findings))

let test_stale_budget () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree [ ("lib/k.ml", "let[@hot] kernel x = x + 1\n") ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/k.ml" ]);
  let budget = budget_of_string "K.kernel 0\nGone.kernel 3\n" in
  let findings, _, stale = collect ~budget root in
  check_int "no findings" 0 (List.length findings);
  (match stale with
  | [ (name, line) ] ->
      check_string "stale name" "Gone.kernel" name;
      check_int "stale line" 2 line
  | _ -> Alcotest.fail "expected exactly the Gone.kernel entry stale");
  (* the driver surfaces it and --strict fails on it *)
  (* the report restricted to the hot-path rules: the fixture has no
     .mli and is not the code under test here *)
  let outcome =
    Driver.run ~jobs:1 ~rules:hotpath_rules ~budget ~dirs:[ "lib" ] ~root ()
  in
  check_bool "driver reports it" true
    (outcome.Driver.budget_stale = [ ("Gone.kernel", 2) ]);
  check_int "lenient passes" 0 (Driver.exit_code outcome);
  check_int "strict fails" 1 (Driver.exit_code ~strict:true outcome);
  check_bool "text renderer names it" true
    (contains
       (Driver.render_text outcome)
       "stale budget entry (lint.budget:2): 'Gone.kernel' matches no [@hot] \
        root")

let test_budget_parse () =
  (match Budget.parse "# comment\nA.f 2\nB.g 0  # trailing\n" with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok b ->
      check_bool "A.f" true (Budget.find b "A.f" = Some 2);
      check_bool "B.g" true (Budget.find b "B.g" = Some 0);
      check_bool "missing defaults upstream" true (Budget.find b "C.h" = None));
  (match Budget.parse "A.f -1\n" with
  | Error msg -> check_bool "negative rejected" true (contains msg "lint.budget:1")
  | Ok _ -> Alcotest.fail "negative count accepted");
  match Budget.parse "A.f two\n" with
  | Error msg -> check_bool "non-int rejected" true (contains msg "lint.budget:1")
  | Ok _ -> Alcotest.fail "non-integer count accepted"

let test_budget_unreadable () =
  let path = Filename.concat (make_tree []) "lint.budget" in
  Sys.mkdir path 0o755;
  match Budget.load path with
  | Ok _ -> Alcotest.fail "a directory loaded as a budget file"
  | Error msg ->
      check_bool "error names the path" true (contains msg (path ^ ": "))

let test_hotpath_jobs_invariance () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [
        unix_stub;
        ( "lib/loop.ml",
          "let handler () = Unix.sleep 1\n\
           let[@event_loop] run () = handler ()\n" );
        ("lib/k.ml", "let helper x = [ x ]\nlet[@hot] kernel x = helper x\n");
      ]
  in
  check_bool "fixtures compile" true
    (compile root [ "lib/unix.ml"; "lib/loop.ml"; "lib/k.ml" ]);
  let render jobs =
    Driver.render_json
      (Driver.run ~jobs ~dirs:[ "lib" ] ~root ())
  in
  check_string "jobs 1 = jobs 4 bytes" (render 1) (render 4)

let test_github_escape_roundtrip () =
  let payloads =
    [
      "plain";
      "50% of cases";
      "line one\nline two";
      "cr\rlf\n mix";
      "commas, colons: and %25 literals";
      "%0A literal then real\n";
    ]
  in
  List.iter
    (fun p ->
      let e = Finding.github_escape p in
      check_bool "no raw newline" true
        (not (String.contains e '\n') && not (String.contains e '\r'));
      check_string "roundtrip" p (Finding.github_unescape e))
    payloads

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "hotpath"
    [
      ( "alloc",
        [
          Alcotest.test_case "witness chain" `Quick test_alloc_chain;
          Alcotest.test_case "within budget" `Quick test_alloc_within_budget;
          Alcotest.test_case "exemptions" `Quick test_alloc_exemptions;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "witness chain" `Quick test_blocking_chain;
          Alcotest.test_case "nonblocking barrier" `Quick
            test_nonblocking_barrier;
        ] );
      ( "budget",
        [
          Alcotest.test_case "stale entries" `Quick test_stale_budget;
          Alcotest.test_case "parse contract" `Quick test_budget_parse;
          Alcotest.test_case "unreadable file" `Quick test_budget_unreadable;
        ] );
      ( "driver",
        [
          Alcotest.test_case "jobs invariance" `Quick
            test_hotpath_jobs_invariance;
          Alcotest.test_case "github escape roundtrip" `Quick
            test_github_escape_roundtrip;
        ] );
    ]
