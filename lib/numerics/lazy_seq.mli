(** Memoised infinite sequences indexed from 1.

    Robot strategies are infinite turning-point sequences [t_1, t_2, ...]
    (Section 2 of the paper).  We represent them as total functions from a
    1-based index, memoised so that repeated probing (simulation, covering
    checks, prefix machinery) costs each element only once.

    Sequences are domain-safe: the cache is mutex-guarded, so one
    sequence may be probed from several domains concurrently (the
    parallel λ-grid and sweep paths of [faulty_search.exec] do).  The
    generator runs outside the lock — it must be pure; two domains
    missing the same index may both run it, and the first insertion
    wins.  Exception: an {!unfold}'s [step] runs under its sequence's
    lock (the state walk is sequential) and must not probe its own
    sequence. *)

type 'a t
(** An infinite sequence [a_1, a_2, ...]. *)

val of_fun : (int -> 'a) -> 'a t
(** [of_fun f] is the sequence [f 1, f 2, ...], each element computed once
    (at most once per concurrently-missing domain).  [f] must be pure.
    Indices [< 1] are invalid. *)

val of_list_then : 'a list -> (int -> 'a) -> 'a t
(** [of_list_then prefix tail] uses the explicit prefix for the first
    [List.length prefix] elements, then [tail i] for later indices ([i] still
    counts from 1 overall). *)

val unfold : init:'s -> ('s -> 'a * 's) -> 'a t
(** [unfold ~init step] generates the sequence whose n-th element is the
    first component of the n-th [step] application.  Memoised: the state walk
    happens once. *)

val get : 'a t -> int -> 'a
(** [get s i] is the i-th element (1-based).
    @raise Invalid_argument on [i < 1]. *)

val partial_sums : float t -> float t
(** [partial_sums s] has i-th element [s_1 + ... + s_i], computed with
    compensated summation (the loads of the paper's proofs). *)
