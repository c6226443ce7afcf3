(** Fixed-size pool of worker domains with a shared work queue.

    The experiment harness evaluates many independent closures (table
    rows, λ-grid points, Monte-Carlo shards).  This pool runs them on
    [jobs - 1] worker domains plus the submitting domain itself: while a
    caller {!await}s a promise it {e helps}, draining the queue, so a
    pool of size 1 degenerates to plain sequential evaluation (no domain
    is spawned) and nested submissions can never deadlock.

    Exceptions raised by a task are captured with their backtrace and
    re-raised at the {!await} site.

    Determinism contract: tasks must not communicate through shared
    mutable state; results flow only through promises.  Under that
    discipline every awaited value is independent of the pool size and
    of the order in which the scheduler happens to run tasks. *)

type t
(** A pool handle.  Pools are cheap (a queue, a mutex, [jobs - 1]
    domains) but not free: create one per batch of work, or keep one for
    a whole program run, and {!shutdown} it when done. *)

type 'a promise
(** The future result of a submitted task. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (default
    {!default_jobs}).  Requires [jobs >= 1]. *)

val async : t -> (unit -> 'a) -> 'a promise
(** Submit a task.  Tasks may themselves call [async]/[await] on the
    same pool (nested fan-out).
    @raise Search_numerics.Search_error.Error with [Pool_closed] on a
    pool that was shut down. *)

val await : 'a promise -> 'a
(** Block until the task has run, helping to drain the queue in the
    meantime; returns its value or re-raises its exception (with the
    original backtrace).  A promise abandoned by {!shutdown} raises
    [Search_error.Error (Pool_closed _)]. *)

val shutdown : t -> unit
(** Close the pool and join the worker domains.  Idempotent.  Queued
    tasks that have not started are dropped; every promise still pending
    (including those whose task was dropped) fails with [Pool_closed],
    and waiters parked in {!await} are woken — shutdown never strands a
    waiter in [Condition.wait]. *)

type stats = {
  jobs : int;  (** pool size, counting the caller *)
  submitted : int;  (** tasks accepted by {!async} since creation *)
  settled : int;  (** promises resolved: completed, crashed, or failed
                      by {!shutdown} *)
  pending : int;  (** [submitted - settled]: queued or in flight *)
}

val stats : t -> stats
(** A consistent snapshot of the pool's task counters — the daemon's
    [stats] request and the load-generator report read these.  Purely
    observational: the numbers depend on scheduling and must never gate
    a deterministic artefact. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] = create, run [f], always shutdown. *)
