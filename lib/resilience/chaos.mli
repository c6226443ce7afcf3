(** Deterministic, seed-driven fault injection ("chaos mode").

    The fault plan for a task is a pure function of (chaos seed, task key):
    each task key derives its own split PRNG, which decides how many faults
    to inject, of what kind, and how much artificial delay to add.  The
    same seed therefore injects the *same* faults at any [--jobs], in any
    task execution order, and on every rerun — so a supervisor with enough
    retries must reproduce the fault-free outputs byte for byte.  That is
    the property the chaos drills in CI check.

    Injected delays perturb scheduling only; injected failures surface as
    [Injected_fault] (retryable) before the task body runs, so a plan of
    [n] faults makes attempts [0 .. n-1] fail and attempt [n] succeed. *)

type t

val disabled : t
(** Injects nothing; zero overhead on the task path. *)

val make : seed:int -> unit -> t
(** [make ~seed ()] — a task suffers at least one fault with probability
    0.25, escalating geometrically (each further fault again with
    probability 0.25) up to {!max_faults} = 2 in total; with probability
    0.25 it also gets a sub-2ms artificial delay each attempt. *)

val max_faults : t -> int
(** Worst-case faults per task (0 when disabled): a retry policy with
    [attempts > max_faults] always recovers. *)

type plan = { faults : int; kinds : string list; delay : float }
(** [kinds] has length [faults]; each is ["exception"] or
    ["worker-death"].  [delay] is seconds of injected latency per
    attempt. *)

val plan : t -> task:string -> plan
(** The (pure, deterministic) fault plan for [task]. *)

val plan_equal : plan -> plan -> bool

val run : t -> task:string -> attempt:int -> (unit -> 'a) -> 'a
(** Apply the plan: sleep the injected delay, then either raise
    [Injected_fault] (when [attempt < faults]) or run the body. *)
