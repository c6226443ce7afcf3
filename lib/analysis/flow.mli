(** The interprocedural engine the typed lint families share: display
    names, breadth-first reachability over call edges, and a
    synchronized-round fixpoint over the sorted defs.  Both traversals
    visit defs in sorted order and call lists in source order, so
    everything built on them is byte-identical at any job count. *)

val human : string -> string
(** Display form of a canonical or stdlib name:
    [human "Stdlib.Unix.sleepf" = "Unix.sleepf"],
    [human "Search_exec__Pool.await" = "Pool.await"]. *)

val reach :
  Callgraph.t ->
  Callgraph.def ->
  enter:(Callgraph.def -> bool) ->
  Callgraph.def list * (Callgraph.def -> string)
(** [reach g root ~enter] walks call edges ({!Callgraph.hcall})
    breadth-first from [root], entering only defs [enter] admits (the
    root itself is always in).  Returns the reached defs in discovery
    order, root first, and a renderer for the shortest witness chain
    from [root] to a reached def: ["Root.f -> A.g -> B.h"]. *)

val fixpoint :
  Callgraph.t ->
  init:(Callgraph.def -> 'a option) ->
  step:((string -> 'a option) -> Callgraph.def -> 'a option) ->
  string ->
  'a option
(** [fixpoint g ~init ~step] seeds each def with [init] and then runs
    synchronized rounds over the sorted defs until no value changes.
    In each round [step get d] reads the previous round's values
    through [get] and returns [Some v] only when [d]'s value changes to
    [v]; the updates are applied after the round.  So a value first set
    in round [k] is witnessed by a shortest chain, and the visit order
    cannot influence the result.  Returns the lookup of final values by
    canonical def name. *)
