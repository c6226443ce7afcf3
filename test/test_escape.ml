(* Tests for the escape analysis family: fixture trees compiled with
   ocamlc -bin-annot, driven through [Driver.run] with the report
   restricted to the escape rules.

   Covers the three advertised detectors — exception flow across public
   boundaries with shortest witness chains ([escape-exn], including the
   [.cmti] export-set privacy contract), release discipline on raising
   paths ([escape-leak], with the [@releases] audit and the
   [Fun.protect] + closer shape), and sim hygiene from the [lib/dst]
   seam ([escape-realio], with the [@real_io] barrier) — plus the rule
   catalogue's exhaustiveness contract and release-on-raise regressions
   for the tree's own with_-wrappers. *)

module Finding = Search_analysis.Finding
module Driver = Search_analysis.Driver
module Escape = Search_analysis.Escape
module Catalogue = Search_analysis.Catalogue
module Rules = Search_analysis.Rules
module Pool = Search_exec.Pool
module Lockfile = Search_resilience.Lockfile
module Client = Search_serve.Client
module E = Search_numerics.Search_error

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let make_tree = Fixture.make_tree
let compile = Fixture.compile
let with_ocamlc = Fixture.with_ocamlc
let by_rule = Fixture.by_rule
let contains = Fixture.contains
let collect root = Fixture.collect ~rules:Escape.rule_ids root

(* A stub Unix module: the realio rule matches display names, so a
   local lib/unix.ml exercises it without linking the real library. *)
let unix_stub =
  ( "lib/unix.ml",
    "let sleep (_ : int) = ()\nlet sleepf (_ : float) = ()\n" )

(* ------------------------------------------------------------------ *)
(* escape-exn                                                          *)

let test_exn_direct () =
  with_ocamlc @@ fun () ->
  let root = make_tree [ ("lib/a.ml", "let go () = raise Not_found\n") ] in
  check_bool "fixtures compile" true (compile root [ "lib/a.ml" ]);
  let findings, units, _ = collect root in
  check_int "one unit" 1 units;
  match by_rule "escape-exn" findings with
  | [ f ] ->
      check_string "at the raise site" "lib/a.ml" f.Finding.file;
      check_int "raise line" 1 f.Finding.line;
      check_bool "witness names the boundary and the site" true
        (contains f.Finding.message
           "exception Not_found escapes public A.go: A.go -> <raise \
            Not_found at lib/a.ml:1>")
  | fs -> Alcotest.failf "expected one escape-exn, got %d" (List.length fs)

let test_exn_transitive_chain () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [
        ( "lib/b.ml",
          "let deep_raise () = raise Not_found\n\
           let mid () = deep_raise ()\n\
           let top () = mid ()\n" );
      ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/b.ml" ]);
  let findings, _, _ = collect root in
  let exn = by_rule "escape-exn" findings in
  (* all three defs are public boundaries of the mli-less unit *)
  check_int "three boundaries flagged" 3 (List.length exn);
  check_bool "shortest chain from the top" true
    (List.exists
       (fun f ->
         contains f.Finding.message
           "B.top -> B.mid -> B.deep_raise -> <raise Not_found at lib/b.ml:1>")
       exn);
  List.iter
    (fun f ->
      check_string "blamed on the raising def's file" "lib/b.ml"
        f.Finding.file;
      check_int "blamed on the raise line" 1 f.Finding.line)
    exn

let test_exn_handler_and_privacy () =
  with_ocamlc @@ fun () ->
  (* the helper's exception is caught at the call site, and the helper
     itself is private to the unit's .mli: nothing escapes *)
  let root =
    make_tree
      [
        ("lib/c.mli", "val safe : unit -> int\n");
        ( "lib/c.ml",
          "let helper () = raise Not_found\n\
           let safe () = try helper () with Not_found -> 0\n" );
      ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/c.mli"; "lib/c.ml" ]);
  let findings, _, _ = collect root in
  check_int "handled + private: clean" 0
    (List.length (by_rule "escape-exn" findings))

let test_exn_no_mli_is_fully_public () =
  with_ocamlc @@ fun () ->
  (* same sources, no interface: the helper becomes a public boundary
     and is flagged; the catching caller stays clean *)
  let root =
    make_tree
      [
        ( "lib/c.ml",
          "let helper () = raise Not_found\n\
           let safe () = try helper () with Not_found -> 0\n" );
      ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/c.ml" ]);
  let findings, _, _ = collect root in
  match by_rule "escape-exn" findings with
  | [ f ] ->
      check_bool "the helper, not the catcher" true
        (contains f.Finding.message "escapes public C.helper")
  | fs -> Alcotest.failf "expected one escape-exn, got %d" (List.length fs)

let test_exn_sanctioned_escapes () =
  with_ocamlc @@ fun () ->
  (* the documented fail-fast idiom stays legal at boundaries *)
  let root =
    make_tree
      [
        ( "lib/s.ml",
          "let check x = if x < 0 then invalid_arg \"neg\" else x\n\
           let sure x = assert (x >= 0); x\n" );
      ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/s.ml" ]);
  let findings, _, _ = collect root in
  check_int "Invalid_argument/Assert_failure sanctioned" 0
    (List.length (by_rule "escape-exn" findings));
  check_bool "sanctioned set is the documented trio" true
    (List.sort String.compare Escape.sanctioned_escapes
    = [ "Assert_failure"; "Invalid_argument"; "Search_error.Error" ])

(* ------------------------------------------------------------------ *)
(* escape-leak                                                         *)

let test_leak_bare_acquisition () =
  with_ocamlc @@ fun () ->
  let root = make_tree [ ("lib/l.ml", "let leak path = open_out path\n") ] in
  check_bool "fixtures compile" true (compile root [ "lib/l.ml" ]);
  let findings, _, _ = collect root in
  match by_rule "escape-leak" findings with
  | [ f ] ->
      check_string "at the acquisition" "lib/l.ml" f.Finding.file;
      check_int "acquisition line" 1 f.Finding.line;
      check_bool "names the class, the acquirer and the def" true
        (contains f.Finding.message
           "channel acquired by open_out in L.leak is not released")
  | fs -> Alcotest.failf "expected one escape-leak, got %d" (List.length fs)

let test_leak_protected_release () =
  with_ocamlc @@ fun () ->
  let root =
    make_tree
      [
        ( "lib/l.ml",
          "let ok path =\n\
          \  let oc = open_out path in\n\
          \  Fun.protect\n\
          \    ~finally:(fun () -> close_out_noerr oc)\n\
          \    (fun () -> output_string oc \"x\")\n" );
      ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/l.ml" ]);
  let findings, _, _ = collect root in
  check_int "protect + closer: clean" 0
    (List.length (by_rule "escape-leak" findings))

let test_leak_releases_audit () =
  with_ocamlc @@ fun () ->
  (* ownership transfer: the audit attribute silences the rule *)
  let root =
    make_tree
      [ ("lib/l.ml", "let[@releases] transfer path = open_out path\n") ]
  in
  check_bool "fixtures compile" true (compile root [ "lib/l.ml" ]);
  let findings, _, _ = collect root in
  check_int "[@releases]: clean" 0
    (List.length (by_rule "escape-leak" findings))

(* ------------------------------------------------------------------ *)
(* escape-realio                                                       *)

let realio_fixture ~barrier =
  [
    unix_stub;
    ( "lib/w.ml",
      Printf.sprintf "let wrap2 () = Unix.sleepf 0.1\nlet%s wrap1 () = wrap2 ()\n"
        (if barrier then "[@real_io]" else "") );
    ("lib/dst/d.ml", "let fiber () = W.wrap1 ()\n");
  ]

let realio_files = [ "lib/unix.ml"; "lib/w.ml"; "lib/dst/d.ml" ]

let test_realio_chain () =
  with_ocamlc @@ fun () ->
  let root = make_tree (realio_fixture ~barrier:false) in
  check_bool "fixtures compile" true (compile root realio_files);
  let findings, units, _ = collect root in
  check_int "three units" 3 units;
  match by_rule "escape-realio" findings with
  | [ f ] ->
      check_string "at the referencing def" "lib/w.ml" f.Finding.file;
      check_int "reference line" 1 f.Finding.line;
      check_bool "full chain from the seam" true
        (contains f.Finding.message
           "D.fiber -> W.wrap1 -> W.wrap2 -> Unix.sleepf")
  | fs -> Alcotest.failf "expected one escape-realio, got %d" (List.length fs)

let test_realio_barrier () =
  with_ocamlc @@ fun () ->
  let root = make_tree (realio_fixture ~barrier:true) in
  check_bool "fixtures compile" true (compile root realio_files);
  let findings, _, _ = collect root in
  check_int "[@real_io] barrier stops the traversal" 0
    (List.length (by_rule "escape-realio" findings))

(* ------------------------------------------------------------------ *)
(* driver                                                              *)

let test_driver_exit_and_jobs_invariance () =
  with_ocamlc @@ fun () ->
  (* one fixture per rule: the driver must exit 1 on escape findings
     and render byte-identically at any job count *)
  let root =
    make_tree
      (realio_fixture ~barrier:false
      @ [
          ("lib/a.ml", "let go () = raise Not_found\n");
          ("lib/l.ml", "let leak path = open_out path\n");
        ])
  in
  check_bool "fixtures compile" true
    (compile root (realio_files @ [ "lib/a.ml"; "lib/l.ml" ]));
  let run jobs =
    Driver.run ~jobs ~rules:Escape.rule_ids ~dirs:[ "lib" ] ~root ()
  in
  let out = run 1 in
  check_bool "all three rules fire" true
    (List.for_all
       (fun r -> by_rule r out.Driver.findings <> [])
       Escape.rule_ids);
  check_int "findings exit 1" 1 (Driver.exit_code out);
  check_string "jobs 1 = jobs 4 bytes" (Driver.render_json out)
    (Driver.render_json (run 4))

(* ------------------------------------------------------------------ *)
(* rule catalogue                                                      *)

(* every rule id any family can emit, by construction of the emitters *)
let emitted_ids =
  List.map (fun (r : Rules.rule) -> r.Rules.id) Rules.all
  @ [ "deep-nondet"; "deep-race"; "deep-lock-order" ]
  @ [ "hotpath-alloc"; "hotpath-blocking" ]
  @ Escape.rule_ids
  @ [ "cmt-load"; "cmt-missing"; "cmt-stale" ]

let test_catalogue_exhaustive () =
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "%s is catalogued" id) true
        (Catalogue.find id <> None))
    emitted_ids;
  let ids = List.map (fun (e : Catalogue.entry) -> e.Catalogue.id) Catalogue.all in
  check_int "catalogue has no extras" (List.length emitted_ids)
    (List.length ids);
  check_int "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_catalogue_families () =
  check_bool "escape ids under the Escape family" true
    (Catalogue.ids_of Catalogue.Escape = Escape.rule_ids);
  check_bool "per-file rules under the Syntactic family" true
    (Catalogue.ids_of Catalogue.Syntactic
    = List.map (fun (r : Rules.rule) -> r.Rules.id) Rules.all);
  check_bool "artefact failures are internal" true
    (Catalogue.ids_of Catalogue.Internal
    = [ "cmt-load"; "cmt-missing"; "cmt-stale" ])

(* ------------------------------------------------------------------ *)
(* release-on-raise regressions for the tree's own wrappers            *)

exception Boom

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let test_with_client_releases_on_raise () =
  (* a listening Unix-domain socket lets connect succeed without a
     server loop; the client's fd must be gone after the raise *)
  let path = Filename.temp_file "fsearch_escape" ".sock" in
  Sys.remove path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 4;
      match open_fds () with
      | None -> () (* no /proc: nothing to measure on this platform *)
      | Some before ->
          (match
             Client.with_client ~socket_path:path (fun _ -> raise Boom)
           with
          | exception Boom -> ()
          | _ -> Alcotest.fail "callback exception swallowed");
          check_int "no descriptor survives the raise" before
            (Option.get (open_fds ())))

let test_with_lock_releases_on_raise () =
  let path = Filename.temp_file "fsearch_escape" ".lock" in
  Sys.remove path;
  (match Lockfile.with_lock ~path (fun () -> raise Boom) with
  | exception Boom -> ()
  | _ -> Alcotest.fail "callback exception swallowed");
  check_bool "sentinel unlinked on the raising path" false
    (Sys.file_exists path);
  (* and the lock is immediately re-acquirable, without waiting for
     staleness recovery *)
  check_int "re-acquirable" 41 (Lockfile.with_lock ~path (fun () -> 41))

let test_with_pool_teardown_on_raise () =
  let captured = ref None in
  (match
     Pool.with_pool ~jobs:2 (fun pool ->
         captured := Some pool;
         raise Boom)
   with
  | exception Boom -> ()
  | _ -> Alcotest.fail "callback exception swallowed");
  match !captured with
  | None -> Alcotest.fail "callback never ran"
  | Some pool -> (
      match Pool.async pool (fun () -> 1) with
      | exception E.Error (E.Pool_closed _) -> ()
      | _ -> Alcotest.fail "pool survived the raising path")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "escape"
    [
      ( "exn",
        [
          Alcotest.test_case "direct raise" `Quick test_exn_direct;
          Alcotest.test_case "transitive chain" `Quick
            test_exn_transitive_chain;
          Alcotest.test_case "handler + mli privacy" `Quick
            test_exn_handler_and_privacy;
          Alcotest.test_case "no mli is fully public" `Quick
            test_exn_no_mli_is_fully_public;
          Alcotest.test_case "sanctioned escapes" `Quick
            test_exn_sanctioned_escapes;
        ] );
      ( "leak",
        [
          Alcotest.test_case "bare acquisition" `Quick
            test_leak_bare_acquisition;
          Alcotest.test_case "protected release" `Quick
            test_leak_protected_release;
          Alcotest.test_case "[@releases] audit" `Quick
            test_leak_releases_audit;
        ] );
      ( "realio",
        [
          Alcotest.test_case "chain from the seam" `Quick test_realio_chain;
          Alcotest.test_case "[@real_io] barrier" `Quick test_realio_barrier;
        ] );
      ( "driver",
        [
          Alcotest.test_case "exit code and jobs invariance" `Quick
            test_driver_exit_and_jobs_invariance;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "every emitted rule catalogued" `Quick
            test_catalogue_exhaustive;
          Alcotest.test_case "families" `Quick
            test_catalogue_families;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "with_client releases on raise" `Quick
            test_with_client_releases_on_raise;
          Alcotest.test_case "with_lock releases on raise" `Quick
            test_with_lock_releases_on_raise;
          Alcotest.test_case "with_pool tears down on raise" `Quick
            test_with_pool_teardown_on_raise;
        ] );
    ]
