(** Grid/sweep sharding with deterministic per-shard randomness.

    Stochastic experiments must be bit-identical at any [--jobs] count.
    The rule that achieves this: the decomposition of the work — and the
    {!Search_numerics.Prng} state handed to each piece — depends only on
    the {e input} (its length, or an explicitly chosen shard count),
    never on the pool size.  Each piece's generator is a leaf of the
    deterministic split tree [leaf i = fst (split (snd split)^i root)],
    so piece [i] draws the same pseudo-random stream whether the pieces
    run on one domain or eight. *)

val prngs : root:Search_numerics.Prng.t -> n:int -> Search_numerics.Prng.t array
(** [n] independent generators, [leaf 0 .. leaf (n-1)] of the split tree
    rooted at [root].  Requires [n >= 0]. *)

val sharded_map :
  Pool.t -> root:Search_numerics.Prng.t
  -> f:(prng:Search_numerics.Prng.t -> 'a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map where item [i] receives [leaf i].
    Bit-identical results at every pool size (for pure [f]). *)

val grid2 : 'a list -> 'b list -> ('a * 'b) list
(** Row-major cartesian product — the flattened (outer, inner) sweep
    grid, in the order the sequential nested loops would visit it. *)
