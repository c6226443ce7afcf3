(** Supervised parallel map: budgets, retries, chaos, checkpoints.

    {!map} is the resilient counterpart of [Par.parallel_map]: each item
    runs as a pool task under a {!spec} (fault injection, per-task step
    budget, immediate retry) and failures come back as [Error] values
    instead of aborting the whole batch — the caller renders them as
    error cells and keeps going (graceful degradation).  With a
    {!persist} attached, completed results are journalled as they land
    and found again on resume, so a killed run recomputes only what is
    missing.

    Determinism: given deterministic [f] and task keys, the result list
    is independent of the job count and of scheduling; chaos faults are a
    pure function of (seed, task key), so a retry policy with more
    attempts than [Chaos.max_faults] reproduces the fault-free output
    exactly. *)

type spec = {
  budget : Search_resilience.Budget.t;
  retry : Search_resilience.Retry.policy;
  chaos : Search_resilience.Chaos.t;
}

val default : spec
(** Unlimited budget, no retries, chaos disabled — with [default], [map]
    degrades to a per-item [try]. *)

type 'b persist = {
  journal : Search_resilience.Journal.t;
  encode : 'b -> Search_numerics.Json.t;
  decode : Search_numerics.Json.t -> ('b, string) result;
}
(** Checkpointing glue: results are journalled under the task key.  A
    journalled value that fails to [decode] is recomputed. *)

val map :
  Pool.t ->
  ?spec:spec ->
  ?persist:'b persist ->
  ?chunk:int ->
  task:(int -> 'a -> string) ->
  f:(Search_resilience.Budget.meter -> 'a -> 'b) ->
  'a list ->
  ('b, Search_numerics.Search_error.t) result list
(** [map pool ~task ~f items] — results in input order.  [task i x] must
    be a stable unique key (it names the task in errors, seeds its chaos
    plan, and keys its checkpoint).  [f] receives the armed budget meter
    and should call [Budget.step] at progress points.

    [chunk] (default [1]) groups that many consecutive items into one
    pool task, amortising dispatch overhead when items are cheap (the
    sweep grid).  Per-item semantics — task keys, chaos plans, retries,
    budgets, checkpoints, result order — are unchanged at any chunk
    size; already-journalled items are never re-dispatched. *)
