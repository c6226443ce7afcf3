(** Immediate retry of transient failures.

    The retry decision is fully deterministic: it depends only on the
    attempt count, the attempt number, and
    {!Search_numerics.Search_error.retryable} on the classified failure.
    Retries follow each other with no delay, so nothing here sleeps and
    outputs stay byte-identical at any job count. *)

type policy
(** How many attempts a task gets in total, the first included. *)

val none : policy
(** Single attempt, no retries. *)

val immediate : attempts:int -> policy
(** [attempts] attempts in total — the chaos drills use
    [Chaos.max_faults + 1].
    @raise Search_numerics.Search_error.Error when [attempts < 1]. *)

val run :
  policy:policy ->
  task:string ->
  (attempt:int -> 'a) ->
  ('a, Search_numerics.Search_error.t) result
(** [run ~policy ~task f] evaluates [f ~attempt:0]; on an exception it
    classifies the failure and, when it is retryable with attempts left,
    tries [f ~attempt:(i+1)] at once.  Returns the first success or the
    last failure. *)
