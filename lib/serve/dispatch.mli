(** Request evaluation: batches onto the domain pool, shared bound cache.

    One dispatcher serves every connection.  The server's event loop
    drains a batch from the {!Backlog} and calls {!handle_batch}; the
    batch fans out across the pool as supervised tasks
    ({!Search_exec.Supervise.map}), so each request gets the full
    resilience treatment — per-task budget, retry policy, structured
    {!Search_numerics.Search_error.t} on failure — and a crash in one
    request degrades to a {!Protocol.Failed} response instead of taking
    the daemon (or even the connection) down.

    The [Bound] cache is shared across every client and every batch: a
    size-bounded LRU ({!Search_exec.Memo}) whose hit/miss/eviction
    counters surface through {!stats}.  Caching never changes response
    bytes — the cached function is pure, so a hit and a recompute are
    byte-identical. *)

type t

val create :
  pool:Search_exec.Pool.t ->
  ?cache_capacity:int ->
  ?spec:Search_exec.Supervise.spec ->
  unit ->
  t
(** [cache_capacity] bounds the bound-payload LRU (default 256 entries);
    [spec] defaults to {!Search_exec.Supervise.default}.
    @raise Search_numerics.Search_error.Error when [cache_capacity < 1]. *)

val handle_batch :
  t -> ('c * int * Protocol.request) list -> ('c * int * Protocol.response) list
(** Evaluate one admitted batch.  Each element carries an opaque routing
    token ['c] (the server uses the connection) and the client's request
    [id]; both are returned untouched with the response, in input order.
    Task failures come back as {!Protocol.Failed} — this function never
    raises on bad requests.  [Stats] requests answer with a snapshot
    taken just before the batch dispatches. *)

val note_shed : t -> unit
(** Record one admission-control shed (the server answers the request
    with {!Protocol.Overloaded} itself). *)

val stats : t -> Protocol.server_stats
(** Counters so far: requests served/shed, batch shape, cache and pool
    statistics.  Purely observational. *)
