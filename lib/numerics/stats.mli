(** Sup-ratio tracking and nearest-rank percentiles.

    The competitive ratio is a supremum of [time(x) / |x|] over target
    locations; the simulator feeds candidate targets one by one and this
    module keeps the running supremum together with the witness argmax. *)

type 'a sup
(** Running supremum of a keyed value, remembering the argmax key. *)

val sup_empty : 'a sup
val sup_add : 'a sup -> key:'a -> value:float -> 'a sup
(** Fold one sample into the running supremum.  [infinity] is a legal
    sample (the adversary's escape verdict); a NaN sample raises
    [Search_error.Error (Non_convergence _)] instead of being silently
    dropped by the [>] comparison.
    @raise Search_error.Error on a NaN [value]. *)

val sup_value : 'a sup -> float
(** Neutral element: negative infinity when empty. *)

val sup_witness : 'a sup -> 'a option
(** The key achieving the supremum, if any sample was added. *)

val nearest_rank : float array -> p:float -> float option
(** Nearest-rank percentile of an array already sorted ascending:
    element of rank [ceil (p/100 * n)] (1-based, clamped), or [None] on
    an empty array — the caller renders that as a null/"nan" cell
    instead of crashing.  Requires [0 <= p <= 100]. *)
