(** Per-task wall-clock metrics with JSON export.

    The bench harness times each experiment section and writes
    [results/bench_timings.json] so later changes have a recorded perf
    trajectory to regress against.  Recording is thread-safe (tasks on
    any domain may call {!time}); entries keep submission order.

    File schema — a JSON list of
    [{ "experiment": "T1", "jobs": 4, "seconds": 0.173 }]
    objects.  {!write} merges: entries of previous runs with a different
    [jobs] value are kept, entries with the same [jobs] are replaced. *)

type t

val create : jobs:int -> unit -> t
(** A recorder whose entries are all tagged with the given job count. *)

val time : t -> experiment:string -> (unit -> 'a) -> 'a
(** Run the closure, record its wall-clock duration under the id, and
    pass its result (or exception) through. *)

val record : t -> experiment:string -> seconds:float -> unit
(** Append an externally measured duration. *)

val entries : t -> (string * float) list
(** [(experiment, seconds)] in recording order. *)

val total : t -> float
(** Sum of all recorded durations. *)

val write : t -> path:string -> unit
(** Merge into the JSON file at [path] (see above); creates it — but not
    its directory — when absent.  An unparsable existing file is
    overwritten.

    The read-merge-write cycle holds an advisory lock on a [path ^
    ".lock"] sidecar (plus an in-process mutex: fcntl locks do not
    exclude domains of one process), and the new contents are written to
    a temp file in the same directory and renamed into place — two
    concurrent bench runs cannot clobber each other's entries or leave a
    torn file. *)

val append_history : t -> path:string -> run:string -> unit
(** Append this recorder as one line of JSONL trend history:
    [{ "run": run, "unix_time": ..., "jobs": ..., "entries": [...] }].
    Unlike {!write}, nothing is ever replaced — consecutive runs
    accumulate, so the perf trajectory across commits stays visible.
    Guarded by the same lock-file + mutex pair as {!write}. *)

val read_history : string -> Search_numerics.Json.t list
(** Parse a history file back, one {!Search_numerics.Json.t} per line,
    oldest first; unparsable lines (e.g. a torn tail from a killed run)
    are skipped.  A missing file is an empty history. *)
