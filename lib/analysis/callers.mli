(** The export-use pass: every [val] of a [lib/] interface needs a
    caller in another compilation unit.

    - [dead-export]: no other unit references the value at all;
    - [test-only-export]: only [test/] units reference it.

    References are the resolved {!Callgraph.reference}s of every def in
    the graph, the reference-only roots' included, minus those from the
    value's own unit.  Each finding sits on the [val]'s own [.mli] line. *)

val findings :
  exports:(string * (string * Location.t) list) list ->
  Callgraph.t ->
  Finding.t list
(** [exports] as from {!Cmt_loader.exports}; units whose interface is
    not under [lib/] are skipped.  Byte-identical at any job count. *)
