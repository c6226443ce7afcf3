(** Turning-point sequences.

    A single robot's strategy, in both settings of the paper, is an
    infinite sequence of turning points [t_1, t_2, t_3, ...] over [R >= 0]:
    on the line it alternates directions ("sent till +t1, till -t2, till
    +t3, ..."); in the ORC setting [t_i] is the depth of round [i].  The
    proofs normalise to nondecreasing sequences; constructors here accept
    arbitrary nonnegative sequences so the normalisation steps
    ({!Normalize}) can be exercised on un-normalised inputs. *)

type t

val of_fun : (int -> float) -> t
(** [of_fun f] — [f i] is [t_i] (1-based), memoised; must be pure and
    nonnegative (checked on access). *)

val of_list_then : float list -> (int -> float) -> t
(** Explicit prefix, then a tail rule. *)

val geometric : ?scale:float -> alpha:float -> unit -> t
(** [t_i = scale *. alpha^i]; [scale] defaults to 1.  Requires
    [alpha > 0.] and [scale > 0.]. *)

val get : t -> int -> float
(** [get s i] = [t_i].
    @raise Invalid_argument on [i < 1] or a negative produced value. *)

val partial_sum : t -> int -> float
(** [partial_sum s i = t_1 +. ... +. t_i] (compensated); [0.] for [i = 0]. *)

val nondecreasing_prefix : t -> n:int -> bool
(** Whether [t_1 <= t_2 <= ... <= t_n]. *)

(** {2 Compiled (flat-array) view}

    The covering and adversary inner loops re-probe the same turning
    prefix thousands of times; through the lazy representation each probe
    pays a mutex acquisition and a hashtable lookup.  A compiled view
    caches the prefix in preallocated float arrays (grown by doubling)
    and replays the exact Kahan summation chain of the lazy
    [partial_sums], so every value it returns is bit-identical to the
    lazy path — the two kernels cannot drift. *)

type compiled
(** A flat-array prefix cache over a turning sequence.  NOT domain-safe:
    one view per task/domain (the underlying {!t} stays shared and
    mutex-memoised). *)

val compile : ?hint:int -> t -> compiled
(** A fresh view; [hint] preallocates that many elements (default 64).
    Construction is O(1) — elements are pulled from the source on first
    access. *)

val compiled_get : compiled -> int -> float
(** Same contract (including validation) as {!get}. *)

val compiled_partial_sum : compiled -> int -> float
(** Same contract as {!partial_sum}, bit-identical values. *)

val compiled_prefix_walk : compiled -> int -> float
(** Sum of the partial sums [S_1 + ... + S_depth] over the already
    materialised prefix — the steady-state read pattern of the covering
    sweeps, exposed as a benchable kernel.  Raises [Invalid_argument]
    when [depth] is negative or exceeds the materialised prefix: unlike
    {!compiled_partial_sum} it never grows the view, so it stays
    allocation-free (a [@hot] lint root with a zero budget). *)
