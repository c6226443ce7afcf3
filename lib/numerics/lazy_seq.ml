(* Memoisation must be domain-safe: the parallel execution layer
   (faulty_search.exec) shares turning-point sequences across domains —
   e.g. one strategy probed at many λ-grid points concurrently — and a
   bare Hashtbl races under concurrent insertion.  Each sequence carries
   a mutex; the user's generator runs OUTSIDE the lock (it must be pure,
   so a duplicated compute on a concurrent miss is harmless and the
   first insertion wins), which also keeps re-entrant generators —
   sequences defined in terms of other sequences — deadlock-free.  The
   [unfold] state walk is inherently sequential, so there the lock is
   held across the walk; its [step] may probe other sequences but must
   not probe its own. *)

type 'a t = {
  get_raw : int -> 'a;
  cache : (int, 'a) Hashtbl.t;
  mutex : Mutex.t;
}

let of_fun f = { get_raw = f; cache = Hashtbl.create 64; mutex = Mutex.create () }

let get t i =
  if i < 1 then invalid_arg "Lazy_seq.get: index must be >= 1"
  else
    match
      Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.cache i)
    with
    | Some v -> v
    | None ->
        let v = t.get_raw i in
        Mutex.protect t.mutex (fun () ->
            match Hashtbl.find_opt t.cache i with
            | Some winner -> winner
            | None ->
                Hashtbl.add t.cache i v;
                v)

let of_list_then prefix tail =
  let arr = Array.of_list prefix in
  let n = Array.length arr in
  of_fun (fun i -> if i <= n then arr.(i - 1) else tail i)

let unfold ~init step =
  (* Memoise the state walk.  Only the state *after* the deepest computed
     element is ever stepped from again, so one slot suffices — the
     produced values are what gets memoised, not the intermediate states
     (trajectories can have millions of legs; retaining every state kept
     the whole walk live for the lifetime of the sequence).  The walk is
     iterative, so filling up to a deep index is constant stack. *)
  let walk_mutex = Mutex.create () in
  let state = ref init in
  let values : (int, 'a) Hashtbl.t = Hashtbl.create 64 in
  let highest = ref 0 in
  let ensure i =
    while !highest < i do
      let j = !highest + 1 in
      let v, s' = step !state in
      Hashtbl.add values j v;
      state := s';
      highest := j
    done
  in
  of_fun (fun i ->
      Mutex.protect walk_mutex (fun () ->
          ensure i;
          Hashtbl.find values i))

let partial_sums t =
  unfold ~init:(1, Kahan.zero) (fun (i, acc) ->
      let acc = Kahan.add acc (get t i) in
      (Kahan.value acc, (i + 1, acc)))
