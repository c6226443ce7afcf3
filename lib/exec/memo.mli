(** Thread-safe, size-bounded memoisation cache.

    A long-lived server answering arbitrary client queries must not grow
    without bound, so the cache caps the entry count and evicts the
    least-recently-used key; its counters (including evictions) feed the
    daemon's [stats] response.  It is a mutex-guarded hash table threaded
    with a recency list: lookups and insertions are atomic, the compute
    itself runs {e outside} the lock (so a slow miss never blocks the
    pool, and re-entrant computes cannot deadlock).  Two domains missing
    the same key concurrently may both compute it; the function must
    therefore be pure, which also makes the duplication harmless — first
    insertion wins. *)

type ('k, 'v) t

val create : capacity:int -> unit -> ('k, 'v) t
(** At most [capacity] entries are retained.
    @raise Search_numerics.Search_error.Error when [capacity < 1]. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Cached value for the key, computing and caching it on a miss — a
    hit refreshes the key's recency; an insert over capacity evicts
    the least-recently-used entry. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

val stats : ('k, 'v) t -> stats
(** [misses] counts computes started (may exceed [entries] under
    concurrent duplicate computes, and under eviction churn);
    [evictions] counts entries dropped to respect [capacity]. *)
