(** One-dimensional intervals on the real line.

    The paper manipulates two interval shapes: the closed λ-cover intervals
    [[t'', t]] produced by a robot's round, and the half-open {e assigned}
    intervals [(t', t]] obtained after the truncation step of the proofs
    ("by truncating some of the intervals … to half-open intervals").  Both
    are represented here with an explicit left-end kind so that coverage
    counting at shared endpoints is exact. *)

type bound_kind = Closed | Open

type t = private {
  lo : float;
  lo_kind : bound_kind;  (** [Closed] for [[lo, …]], [Open] for [(lo, …]] *)
  hi : float;  (** the right end is always closed: […, hi] *)
}

val closed : float -> float -> t
(** [closed lo hi] is [[lo, hi]].  Requires [lo <= hi]. *)

val left_open : float -> float -> t
(** [left_open lo hi] is [(lo, hi]].  Requires [lo < hi]. *)

val mem : float -> t -> bool
(** Membership respecting the left-end kind. *)

val compare_by_left : t -> t -> int
(** Sort order used to build prefixes: by left endpoint, an open bound at x
    sorting {e after} a closed bound at x; ties broken by right endpoint. *)
