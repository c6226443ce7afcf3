(** The escape analysis family over the call graph: exception flow
    ([escape-exn]), resource-release discipline ([escape-leak]) and
    simulation hygiene ([escape-realio]), each with witness chains.
    See the implementation header for the exact contracts. *)

val findings :
  exports:(string * (string * Location.t) list) list ->
  Callgraph.t ->
  Finding.t list
(** All three rule groups.  [exports] maps compilation-unit names to
    their [.mli]-exported dotted value names (from
    {!Cmt_loader.exports}); a [lib/] unit absent from the list is
    treated as fully public.  Byte-identical at any job count. *)
