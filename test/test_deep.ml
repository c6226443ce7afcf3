(* Tests for the typed, interprocedural analysis family: fixture trees
   compiled with ocamlc -bin-annot (so the cmt artefacts look exactly
   like dune's, with repo-relative source paths), driven through
   [Driver.run].

   Covers the three advertised detectors — transitive nondeterminism
   taint with its source→sink chain, an unguarded shared ref captured
   by a pool-entry closure, and a two-mutex acquisition-order cycle —
   plus the audited-sink barrier, stale-allowlist detection, the lint
   exit-code contract and the GitHub annotation emitter. *)

module Finding = Search_analysis.Finding
module Allow = Search_analysis.Allow
module Driver = Search_analysis.Driver
module Callgraph = Search_analysis.Callgraph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let make_tree = Fixture.make_tree
let compile = Fixture.compile
let with_ocamlc = Fixture.with_ocamlc
let by_rule = Fixture.by_rule
let contains = Fixture.contains

let collect root =
  let findings, units, _budget_stale = Fixture.collect root in
  (findings, units)

let parse_allow text =
  match Allow.parse text with
  | Ok a -> a
  | Error e -> Alcotest.failf "parse: %s" e

let taint_tree () =
  make_tree
    [
      ( "lib/a.ml",
        "let noise () = Random.int 10\n\
         let w1 () = noise () + 1\n\
         let w2 () = w1 () * 2\n" );
      ("lib/uses.ml", "let call () = A.w2 ()\n");
    ]

(* ------------------------------------------------------------------ *)

let test_taint_chain () =
  with_ocamlc @@ fun () ->
  let root = taint_tree () in
  check_bool "fixtures compile" true
    (compile root [ "lib/a.ml"; "lib/uses.ml" ]);
  let findings, units = collect root in
  check_int "two units" 2 units;
  let taint = by_rule "deep-nondet" findings in
  (* noise, w1, w2 and the cross-module caller *)
  check_int "four tainted defs" 4 (List.length taint);
  match
    List.find_opt
      (fun f ->
        String.equal f.Finding.file "lib/a.ml" && f.Finding.line = 3)
      taint
  with
  | None -> Alcotest.fail "no finding at the w2 call site (lib/a.ml:3)"
  | Some f ->
      check_bool "full source->sink chain" true
        (contains f.Finding.message "A.w2 -> A.w1 -> A.noise -> Random.int")

let test_taint_barrier () =
  with_ocamlc @@ fun () ->
  let root = taint_tree () in
  check_bool "fixtures compile" true
    (compile root [ "lib/a.ml"; "lib/uses.ml" ]);
  (* auditing lib/a.ml stops propagation at its boundary (including
     between its own defs) but still reports the defs that touch a
     source directly, so the allow entry suppressing them registers as
     used rather than stale *)
  let allow = parse_allow "deep-nondet lib/a.ml\n" in
  let o =
    Driver.run ~jobs:1 ~rules:[ "deep-nondet" ] ~allow ~dirs:[ "lib" ] ~root ()
  in
  check_int "nothing reported past the barrier" 0 (List.length o.Driver.findings);
  check_int "only the direct source toucher" 1 o.Driver.suppressed;
  check_bool "and it is in the audited file (entry used, not stale)" true
    (o.Driver.stale = [])

let test_race () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [
        ( "lib/b.ml",
          "let[@pool_entry] submit f = f ()\n\
           let leak = ref 0\n\
           let guard = Mutex.create ()\n\
           let leak2 = ref 0\n\
           let bad () = submit (fun () -> leak := !leak + 1)\n\
           let ok () =\n\
          \  submit (fun () -> Mutex.protect guard (fun () -> leak2 := !leak2 + 1))\n\
           let ok2 () =\n\
          \  submit (fun () -> Mutex.protect guard @@ fun () -> leak2 := !leak2 + 1)\n" );
      ]
  in
  check_bool "fixture compiles" true (compile root [ "lib/b.ml" ]);
  let findings, _ = collect root in
  let races = by_rule "deep-race" findings in
  check_int "exactly the unguarded cell" 1 (List.length races);
  let f = List.hd races in
  check_string "at the mutation site" "lib/b.ml" f.Finding.file;
  check_int "line of leak := ..." 5 f.Finding.line;
  check_bool "names the cell and the job chain" true
    (contains f.Finding.message "B.leak"
     && contains f.Finding.message "B.bad{B.submit}")

(* Two pooled roots reach the racy writer [c]: one through two wrappers,
   one directly.  The job chain is the shortest path, whichever root
   sorts first. *)
let test_race_shortest_chain () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [
        ( "lib/z.ml",
          "let[@pool_entry] submit f = f ()\n\
           let cell = ref 0\n\
           let c () = cell := !cell + 1\n\
           let b2 () = c ()\n\
           let b1 () = b2 ()\n\
           let a_root () = submit (fun () -> b1 ())\n\
           let z_root () = submit (fun () -> c ())\n" );
      ]
  in
  check_bool "fixture compiles" true (compile root [ "lib/z.ml" ]);
  let findings, _ = collect root in
  match by_rule "deep-race" findings with
  | [ f ] ->
      check_int "at the write in c" 3 f.Finding.line;
      check_bool "shortest job chain" true
        (contains f.Finding.message "(job chain: Z.z_root{Z.submit} -> Z.c)")
  | fs -> Alcotest.failf "expected one deep-race finding, got %d" (List.length fs)

let test_lock_order () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [
        ( "lib/c.ml",
          "let ma = Mutex.create ()\n\
           let mb = Mutex.create ()\n\
           let f1 () = Mutex.protect ma (fun () -> Mutex.protect mb (fun () -> ()))\n\
           let f2 () = Mutex.protect mb (fun () -> Mutex.protect ma (fun () -> ()))\n" );
      ]
  in
  check_bool "fixture compiles" true (compile root [ "lib/c.ml" ]);
  let findings, _ = collect root in
  let cycles = by_rule "deep-lock-order" findings in
  check_int "one cycle, reported once" 1 (List.length cycles);
  let f = List.hd cycles in
  check_string "witnessed in c.ml" "lib/c.ml" f.Finding.file;
  check_int "at the inner protect of f1" 3 f.Finding.line;
  check_bool "names both mutexes" true
    (contains f.Finding.message "C.ma" && contains f.Finding.message "C.mb")

let test_deep_jobs_invariance () =
  with_ocamlc @@ fun () ->
  let root = taint_tree () in
  check_bool "fixtures compile" true
    (compile root [ "lib/a.ml"; "lib/uses.ml" ]);
  let o1 = Driver.run ~jobs:1 ~root () in
  let o4 = Driver.run ~jobs:4 ~root () in
  check_bool "deep pass ran" true (o1.Driver.units = 2);
  check_bool "found the planted taint" true
    (by_rule "deep-nondet" o1.Driver.findings <> []);
  check_string "text report byte-identical" (Driver.render_text o1)
    (Driver.render_text o4);
  check_string "json report byte-identical" (Driver.render_json o1)
    (Driver.render_json o4);
  check_string "github report byte-identical" (Driver.render_github o1)
    (Driver.render_github o4)

(* ------------------------------------------------------------------ *)

let test_entries_located () =
  match Allow.parse "a b\n\n# comment\nd e  # trailing\n" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok allow ->
      Alcotest.(check (list (triple string string int)))
        "line numbers recorded"
        [ ("a", "b", 1); ("d", "e", 4) ]
        (Allow.entries_located allow)

let stale_fixture () =
  Fixture.compiled_tree
    [
      ("lib/x.mli", "val t : unit -> float\n");
      ("lib/x.ml", "let t () = Sys.time ()\n");
    ]

let test_stale_detection () =
  with_ocamlc @@ fun () ->
  let root = stale_fixture () in
  let allow =
    parse_allow
      "nondet lib/x.ml\ndeep-nondet lib/x.ml\nnondet lib/unused.ml\n\
       deep-race lib/unused.ml\n"
  in
  let out = Driver.run ~jobs:1 ~allow ~root () in
  check_int "no surviving findings" 0 (List.length out.Driver.findings);
  Alcotest.(check (list (triple string string int)))
    "every family's unmatched entry is stale"
    [ ("nondet", "lib/unused.ml", 3); ("deep-race", "lib/unused.ml", 4) ]
    out.Driver.stale;
  check_int "clean tree + stale, default" 0 (Driver.exit_code out);
  check_int "clean tree + stale, strict" 1 (Driver.exit_code ~strict:true out)

(* --rules scopes staleness to the rules that ran: an entry for a rule
   outside the selection is neither matched nor stale. *)
let test_stale_scoped_to_rules () =
  with_ocamlc @@ fun () ->
  let root = stale_fixture () in
  let allow =
    parse_allow
      "nondet lib/x.ml\ndeep-nondet lib/x.ml\nnondet lib/unused.ml\n\
       deep-race lib/unused.ml\n"
  in
  let only rules = Driver.run ~jobs:1 ~rules ~allow ~root () in
  let compare_only = only [ "poly-compare" ] in
  check_bool "no stale entries outside the selection" true
    (compare_only.Driver.stale = []);
  check_int "strict passes" 0 (Driver.exit_code ~strict:true compare_only);
  (* typed families are selectable too *)
  let race_only = only [ "deep-race" ] in
  Alcotest.(check (list (triple string string int)))
    "only the selected rule's entries"
    [ ("deep-race", "lib/unused.ml", 4) ]
    race_only.Driver.stale;
  check_bool "an unknown id is rejected" true
    (match only [ "no-such-rule" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_exit_codes () =
  with_ocamlc @@ fun () ->
  (* a source that does not compile has no artefact: internal *)
  let broken_root = make_tree [ ("lib/broken.ml", "let = (\n") ] in
  check_bool "broken source does not compile" false
    (compile broken_root [ "lib/broken.ml" ]);
  let broken_out = Driver.run ~jobs:1 ~root:broken_root () in
  check_bool "cmt-missing finding surfaced" true
    (by_rule "cmt-missing" broken_out.Driver.findings <> []);
  check_int "uncompiled source is internal" 3 (Driver.exit_code broken_out);
  (* a corrupt cmt artefact is likewise internal, not a lint verdict *)
  let cmt_root = make_tree [ ("lib/garbage.cmt", "not a cmt\n") ] in
  let cmt_out = Driver.run ~jobs:1 ~root:cmt_root () in
  check_bool "cmt-load finding surfaced" true
    (by_rule "cmt-load" cmt_out.Driver.findings <> []);
  check_int "corrupt artefact is internal" 3 (Driver.exit_code cmt_out);
  let clean_root =
    Fixture.compiled_tree
      [
        ("lib/y.mli", "val add : int -> int -> int\n");
        ("lib/y.ml", "let add a b = a + b\n");
      ]
  in
  let clean = Driver.run ~jobs:1 ~root:clean_root () in
  check_int "clean is zero" 0 (Driver.exit_code ~strict:true clean);
  let taint_root = taint_tree () in
  check_bool "fixtures compile" true
    (compile taint_root [ "lib/a.ml"; "lib/uses.ml" ]);
  let finding_out = Driver.run ~jobs:1 ~root:taint_root () in
  check_int "ordinary finding is one" 1 (Driver.exit_code finding_out)

let test_github_render () =
  let o =
    {
      Driver.findings =
        [
          Finding.v ~rule:"demo" ~severity:Finding.Error ~file:"lib/x.ml"
            ~loc:Location.none "50% bad\nsecond line";
        ];
      suppressed = 0;
      files = 1;
      units = 0;
      stale = [ ("nondet", "lib/unused.ml", 7) ];
      budget_stale = [ ("Gone.kernel", 3) ];
    }
  in
  let out = Driver.render_github o in
  check_bool "error annotation" true (contains out "::error file=lib/x.ml,line=");
  check_bool "percent escaped" true (contains out "50%25 bad");
  check_bool "newline escaped" true (contains out "%0Asecond line");
  check_bool "stale entry as warning on lint.allow" true
    (contains out "::warning file=lint.allow,line=7");
  check_bool "stale budget entry as warning on lint.budget" true
    (contains out "::warning file=lint.budget,line=3");
  check_bool "rule tag present" true (contains out "[demo]")

let test_display_name () =
  check_string "wrapper mangling stripped" "Supervise.map"
    (Callgraph.display_name "Search_exec__Supervise.map");
  check_string "plain unit kept" "A.w2" (Callgraph.display_name "A.w2");
  check_string "nested path" "Search_cli.(init)"
    (Callgraph.display_name "Dune__exe__Search_cli.(init)")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "deep"
    [
      ( "graph",
        [ Alcotest.test_case "display names" `Quick test_display_name ] );
      ( "taint",
        [
          Alcotest.test_case "transitive chain" `Quick test_taint_chain;
          Alcotest.test_case "audited barrier" `Quick test_taint_barrier;
        ] );
      ( "lockset",
        [
          Alcotest.test_case "unguarded pooled ref" `Quick test_race;
          Alcotest.test_case "shortest job chain" `Quick
            test_race_shortest_chain;
          Alcotest.test_case "two-mutex cycle" `Quick test_lock_order;
        ] );
      ( "driver",
        [
          Alcotest.test_case "deep jobs invariance" `Quick
            test_deep_jobs_invariance;
          Alcotest.test_case "allow entries located" `Quick
            test_entries_located;
          Alcotest.test_case "stale allowlist" `Quick test_stale_detection;
          Alcotest.test_case "stale scoped to --rules" `Quick
            test_stale_scoped_to_rules;
          Alcotest.test_case "exit-code contract" `Quick test_exit_codes;
          Alcotest.test_case "github annotations" `Quick test_github_render;
        ] );
    ]
