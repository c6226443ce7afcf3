(* The exhaustive rule catalogue across every analysis family
   plus the driver's internal pseudo-rules.  Single source of truth
   for `--rules` selection and listings and for stale-allowlist
   scoping: a rule id emitted anywhere but absent here is a bug
   (pinned by a test), and an allowlist entry naming an uncatalogued
   rule is stale by definition. *)

type family = Syntactic | Deep | Hotpath | Escape | Surface | Internal

type entry = { id : string; family : family; doc : string }

let family_to_string = function
  | Syntactic -> "syntactic"
  | Deep -> "deep"
  | Hotpath -> "hotpath"
  | Escape -> "escape"
  | Surface -> "surface"
  | Internal -> "internal"

let typed_entries =
  [
    {
      id = "deep-nondet";
      family = Deep;
      doc =
        "def that uses or reaches a nondeterminism source (Random.*, wall \
         clocks, Hashtbl.hash, Domain.self), with its call chain";
    };
    {
      id = "deep-race";
      family = Deep;
      doc = "shared mutable cell written from pooled code without a consistent lock";
    };
    {
      id = "deep-lock-order";
      family = Deep;
      doc = "cycle in the lock acquisition order graph";
    };
    {
      id = "hotpath-alloc";
      family = Hotpath;
      doc = "allocation sites reachable from a [@hot] root exceed its lint.budget";
    };
    {
      id = "hotpath-blocking";
      family = Hotpath;
      doc = "blocking primitive reachable from an [@event_loop] root";
    };
    {
      id = "escape-exn";
      family = Escape;
      doc =
        "exception other than Search_error.Error (or the fail-fast \
         Invalid_argument/Assert_failure pair) escapes a public boundary";
    };
    {
      id = "escape-leak";
      family = Escape;
      doc =
        "acquisition site with no release on raising paths and no [@releases] audit";
    };
    {
      id = "escape-realio";
      family = Escape;
      doc = "real Unix socket/clock/sleep primitive reachable from the sim seam";
    };
    {
      id = "dead-export";
      family = Surface;
      doc = "lib/ .mli value that no other compilation unit references";
    };
    {
      id = "test-only-export";
      family = Surface;
      doc = "lib/ .mli value that only test/ units reference";
    };
    {
      id = "cmt-load";
      family = Internal;
      doc = "cmt artefact that cannot be loaded (rebuild and rerun)";
    };
    {
      id = "cmt-missing";
      family = Internal;
      doc = "source file with no .cmt/.cmti artefact (run dune build @check)";
    };
    {
      id = "cmt-stale";
      family = Internal;
      doc = "artefact compiled from another version of the source (rebuild)";
    };
  ]

let all =
  List.map
    (fun (r : Rules.rule) ->
      { id = r.Rules.id; family = Syntactic; doc = r.Rules.doc })
    Rules.all
  @ typed_entries

let find id = List.find_opt (fun e -> String.equal e.id id) all

let family_equal (a : family) b =
  match (a, b) with
  | Syntactic, Syntactic | Deep, Deep | Hotpath, Hotpath
  | Escape, Escape | Surface, Surface | Internal, Internal ->
      true
  | _ -> false

let ids_of family =
  List.filter_map
    (fun e -> if family_equal e.family family then Some e.id else None)
    all
