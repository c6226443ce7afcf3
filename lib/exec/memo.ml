(* Intrusive doubly-linked recency list threaded through the hash
   table's nodes: head = most recent, tail = next eviction victim.
   Every structural operation happens under the mutex; the compute
   itself runs outside it. *)
type ('k, 'v) node = {
  key : 'k;
  value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards head / MRU *)
  mutable next : ('k, 'v) node option;  (* towards tail / LRU *)
}

type ('k, 'v) t = {
  mutex : Mutex.t;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  capacity : int;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let create ~capacity () =
  if capacity < 1 then
    Search_numerics.Search_error.invalid ~where:"Memo.create"
      "need capacity >= 1";
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (min capacity 64);
    capacity;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* all three list operations assume the mutex is held *)
let detach_locked t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front_locked t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> ());
  t.head <- Some node;
  match t.tail with None -> t.tail <- Some node | Some _ -> ()

let evict_excess_locked t =
  while Hashtbl.length t.table > t.capacity do
    match t.tail with
    | None -> assert false (* table non-empty means the list is too *)
    | Some victim ->
        detach_locked t victim;
        Hashtbl.remove t.table victim.key;
        t.evictions <- t.evictions + 1
  done

let find_or_add t key compute =
  let cached =
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some node ->
            t.hits <- t.hits + 1;
            detach_locked t node;
            push_front_locked t node;
            Some node.value
        | None ->
            t.misses <- t.misses + 1;
            None)
  in
  match cached with
  | Some v -> v
  | None ->
      let v = compute () in
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.table key with
          | Some winner ->
              (* a concurrent compute landed first; keep it (the
                 function is pure, the values agree) and refresh its
                 recency *)
              detach_locked t winner;
              push_front_locked t winner;
              winner.value
          | None ->
              let node = { key; value = v; prev = None; next = None } in
              Hashtbl.add t.table key node;
              push_front_locked t node;
              evict_excess_locked t;
              v)

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        capacity = t.capacity;
      })
