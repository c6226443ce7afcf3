(** Interprocedural nondeterminism taint over the {!Callgraph}.

    A def is tainted when it reaches [Random.*], [Sys.time],
    [Unix.gettimeofday]/[time]/[times], [Hashtbl.hash]/[seeded_hash]/
    [randomize] or [Domain.self] directly or through any chain of
    top-level calls.  Every tainted def yields one [deep-nondet]
    finding carrying a shortest source→sink chain, at its first direct
    use or at the call that starts the chain.

    [audited file] marks taint barriers (the audited-sink contract in
    lint.allow): defs in audited files are still reported — so the
    allowlist entry that suppresses them registers as used — but their
    callers stay clean. *)

val findings : audited:(string -> bool) -> Callgraph.t -> Finding.t list
(** Sorted by graph def order; the driver re-sorts and dedups. *)
