(** Per-task budgets: deterministic step limits.

    A {!t} is a passive spec; {!start} arms it into a {!meter} that the
    task threads through its hot loop, calling {!step} at natural progress
    points.  Enforcement is cooperative — nothing preempts a task that
    never calls {!step}.  The limit counts steps, never time, so it is
    exact and reproducible at any job count. *)

type t
(** A budget spec; immutable and shareable across tasks. *)

val unlimited : t

val make : steps:int -> t
(** [make ~steps] caps each supervised task at [steps] {!step}-units.
    @raise Search_numerics.Search_error.Error when [steps <= 0]. *)

type meter
(** One task's running consumption against a spec. *)

val start : t -> task:string -> meter
(** Arm the budget for task [task]. *)

val step : ?cost:int -> meter -> unit
(** Record [cost] (default 1) units of progress.
    @raise Search_numerics.Search_error.Error with [Budget_exceeded] when
    the limit is crossed. *)
