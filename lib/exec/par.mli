(** Deterministic parallel combinators over a {!Pool}.

    All combinators preserve {e input order}: results are assembled by
    submission position, never by completion order, so for pure functions
    the output — including the floating-point evaluation order of any
    subsequent fold — is byte-identical to the sequential
    [List.map]/[List.fold_left] at every pool size. *)

val parallel_map : ?chunk:int -> Pool.t -> f:('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel [List.map].  [chunk] (default 1) groups
    that many consecutive items into one task, amortising queue traffic
    for very cheap [f].  If any [f x] raises, the leftmost failing
    item's exception is re-raised. *)

val parallel_mapi : Pool.t -> f:(int -> 'a -> 'b) -> 'a list -> 'b list
(** Same with the 0-based input position. *)
