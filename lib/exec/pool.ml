(* One mutex/condition pair guards everything: the queue, the shutdown
   flag, the pending-promise registry and every promise's state.  [wake]
   is broadcast on each of the three events an idle domain can be waiting
   for — new work, a promise resolving, shutdown — which keeps the
   protocol obviously deadlock-free at the cost of some spurious wake-ups
   (fine at table-row granularity).

   Every critical section goes through [Mutex.protect] so an exception
   raised inside (e.g. [async] on a closed pool) cannot leak the lock;
   jobs themselves always run outside the protected region.

   Shutdown protocol: queued-but-unstarted jobs are dropped and every
   still-pending promise is failed with [Pool_closed], then [wake] is
   broadcast — so a waiter parked in [Condition.wait] inside [await]
   wakes, observes [Failed] and raises, instead of sleeping forever on a
   pool nobody will ever run work for.  Jobs already executing on a
   worker finish normally, but their late result is discarded (the
   promise is already [Failed]; first writer wins). *)

module E = Search_numerics.Search_error

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type t = {
  mutex : Mutex.t;
  wake : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
  mutable pending : hidden list;
  mutable since_prune : int;
  mutable submitted : int;
  mutable settled : int;
  jobs : int;
}

and 'a promise = { pool : t; mutable result : 'a state }
and hidden = Hide : 'a promise -> hidden

let default_jobs () = Domain.recommended_domain_count ()

let worker t =
  let running = ref true in
  while !running do
    let job =
      Mutex.protect t.mutex (fun () ->
          while Queue.is_empty t.queue && not t.closing do
            Condition.wait t.wake t.mutex
          done;
          if Queue.is_empty t.queue then begin
            (* closing and drained *)
            running := false;
            None
          end
          else Some (Queue.pop t.queue))
    in
    (* run outside the critical section *)
    Option.iter (fun job -> job ()) job
  done

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then E.invalid ~where:"Pool.create" "need jobs >= 1";
  let t =
    {
      mutex = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      closing = false;
      workers = [];
      pending = [];
      since_prune = 0;
      submitted = 0;
      settled = 0;
      jobs;
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

(* Registry upkeep: long-lived pools submit thousands of promises, so the
   registry is compacted every so often instead of on every resolution
   (which would be quadratic). *)
let prune_every = 1024

let prune_locked t =
  t.since_prune <- t.since_prune + 1;
  if t.since_prune >= prune_every then begin
    t.since_prune <- 0;
    t.pending <-
      List.filter
        (fun (Hide p) -> match p.result with Pending -> true | _ -> false)
        t.pending
  end

(* [@pool_entry] marks the functions whose closure arguments may run on
   another domain; the deep lockset lint (lib/analysis/lockset.ml)
   treats their callers as potentially-parallel roots. *)
let[@pool_entry] async t f =
  let p = { pool = t; result = Pending } in
  let job () =
    let r =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.protect t.mutex (fun () ->
        (* first writer wins: shutdown may already have failed it *)
        (match p.result with
        | Pending ->
            p.result <- r;
            t.settled <- t.settled + 1
        | Done _ | Failed _ -> ());
        Condition.broadcast t.wake)
  in
  Mutex.protect t.mutex (fun () ->
      if t.closing then
        E.raise_ (E.Pool_closed { what = "Pool.async: pool is shut down" });
      t.pending <- Hide p :: t.pending;
      t.submitted <- t.submitted + 1;
      prune_locked t;
      Queue.push job t.queue;
      Condition.broadcast t.wake);
  p

let rec await p =
  let t = p.pool in
  let action =
    Mutex.protect t.mutex (fun () ->
        match p.result with
        | Done v -> `Return v
        | Failed (e, bt) -> `Raise (e, bt)
        | Pending ->
            if not (Queue.is_empty t.queue) then
              (* help: run some queued task (possibly, but not necessarily,
                 the one we are waiting for) *)
              `Run (Queue.pop t.queue)
            else begin
              Condition.wait t.wake t.mutex;
              `Retry
            end)
  in
  match action with
  | `Return v -> v
  | `Raise (e, bt) -> Printexc.raise_with_backtrace e bt
  | `Run job ->
      job ();
      await p
  | `Retry -> await p

let shutdown t =
  let already =
    Mutex.protect t.mutex (fun () ->
        let already = t.closing in
        t.closing <- true;
        if not already then begin
          (* drop unstarted work and fail whatever is still pending, so
             parked awaiters wake into a [Failed] state *)
          Queue.clear t.queue;
          let bt = Printexc.get_callstack 0 in
          List.iter
            (fun (Hide p) ->
              match p.result with
              | Pending ->
                  p.result <-
                    Failed
                      ( E.Error
                          (E.Pool_closed
                             { what = "task abandoned by Pool.shutdown" }),
                        bt );
                  t.settled <- t.settled + 1
              | Done _ | Failed _ -> ())
            t.pending;
          t.pending <- []
        end;
        Condition.broadcast t.wake;
        already)
  in
  if not already then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

type stats = { jobs : int; submitted : int; settled : int; pending : int }

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        jobs = t.jobs;
        submitted = t.submitted;
        settled = t.settled;
        pending = t.submitted - t.settled;
      })

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
