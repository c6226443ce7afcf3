(** Hot-path performance rules over the call graph: allocation budgets
    for [[@hot]] roots ([hotpath-alloc]) and blocking-call detection
    from [[@event_loop]] roots ([hotpath-blocking]), with witness call
    chains.  See the implementation header for the exact contracts. *)

val findings : budget:Budget.t -> Callgraph.t -> Finding.t list
(** Both rule families, roots in sorted def order; byte-identical at
    any job count. *)

val stale_budget : budget:Budget.t -> Callgraph.t -> (string * int) list
(** [lint.budget] entries naming no current [[@hot]] root:
    [(name, line)]. *)
