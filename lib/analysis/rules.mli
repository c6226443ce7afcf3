(** The per-file rule registry.

    Every rule but [mli-coverage] is a pass over one unit's Typedtree
    (read from its [.cmt], or its [.cmti] for [unsafe-ops] externals),
    so names are matched after resolution: the ident rules compare the
    resolved path with one leading [Stdlib.] stripped, [poly-compare]
    reads operand types.  [mli-coverage] works from the discovered
    source list.  Rules are derived from this repo's actual failure
    modes, and their union is the project's determinism and
    numeric-safety contract.

    Rule ids (stable, used in findings and [lint.allow]):
    - [poly-compare] — polymorphic [compare]/[=] hazards
    - [nondet] — ambient nondeterminism ([Random], wall clocks, [Hashtbl.hash])
    - [float-hygiene] — NaN literals, unguarded [float_of_string], [/. 0.]
    - [lock-discipline] — bare [Mutex.lock]/[unlock]
    - [unsafe-ops] — [Obj.magic], [unsafe_get]/[set], [%identity]
    - [output-discipline] — direct stdout/stderr printing inside [lib/]
    - [mli-coverage] — [lib/] modules without an interface file
    - [closed-variant-wildcard] — catch-all [_] in matches on closed
      domain variants
    - [global-mutable-state] — top-level refs/tables in [lib/] *)

type rule = {
  id : string;
  severity : Finding.severity;
  doc : string;  (** one-line description for [--rules] listings *)
  applies : string -> bool;  (** path scope, e.g. [lib/] only *)
}

val all : rule list
(** The registry, in reporting order. *)

val check : file:string -> Cmt_loader.unit_info -> Finding.t list
(** Every registered rule whose [applies] accepts [file], over the unit
    compiled from [file], in one traversal.  Findings come back
    unsorted; the driver sorts. *)

val mli_coverage : string list -> Finding.t list
(** [mli-coverage] over a discovered source list: one finding per
    [lib/] [.ml] with no sibling [.mli] in the list. *)
