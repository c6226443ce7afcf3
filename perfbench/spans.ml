(* In-memory span recorder for the traced run.

   A span is (name, start, stop, parent, request id).  Spans live in
   growable parallel arrays until the run ends, when [write] dumps them as
   tab-separated lines; past [cap] spans only the per-name aggregates keep
   counting, so a long run cannot grow the trace without bound.  Self time
   of a span is its duration minus the durations of its direct children
   (children are recorded sequentially inside their parent). *)

type agg = { mutable count : int; mutable total : float; mutable self : float }

let cap = 1 lsl 18

type t = {
  mutable n : int;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable reqs : int array;
  mutable child : float array;  (** summed duration of direct children *)
  aggs : (string, agg) Hashtbl.t;
  mutable dropped : int;
}

let create () =
  let init = 1024 in
  {
    n = 0;
    names = Array.make init "";
    starts = Array.make init 0.;
    stops = Array.make init 0.;
    parents = Array.make init (-1);
    reqs = Array.make init (-1);
    child = Array.make init 0.;
    aggs = Hashtbl.create 32;
    dropped = 0;
  }

let grow t =
  let len = Array.length t.names * 2 in
  let ext a fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.names <- ext t.names "";
  t.starts <- ext t.starts 0.;
  t.stops <- ext t.stops 0.;
  t.parents <- ext t.parents (-1);
  t.reqs <- ext t.reqs (-1);
  t.child <- ext t.child 0.

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { count = 0; total = 0.; self = 0. } in
      Hashtbl.add t.aggs name a;
      a

(* A span id for a span past the cap: aggregates only. *)
let untracked = -2

let enter t ~name ?(parent = -1) ?(req = -1) start =
  if t.n >= cap then begin
    t.dropped <- t.dropped + 1;
    untracked
  end
  else begin
    if t.n >= Array.length t.names then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.names.(id) <- name;
    t.starts.(id) <- start;
    t.stops.(id) <- start;
    t.parents.(id) <- parent;
    t.reqs.(id) <- req;
    t.child.(id) <- 0.;
    id
  end

(* Close span [id] at [stop]; [name] and [parent] repeat the [enter]
   arguments so an untracked span still aggregates. *)
let leave t id ~name ?(parent = -1) ~start stop =
  let d = stop -. start in
  let self =
    if id >= 0 then begin
      t.stops.(id) <- stop;
      d -. t.child.(id)
    end
    else d
  in
  if parent >= 0 then t.child.(parent) <- t.child.(parent) +. d;
  let a = agg t name in
  a.count <- a.count + 1;
  a.total <- a.total +. d;
  a.self <- a.self +. self

let span t ~name ?parent ?req f =
  let start = Unix.gettimeofday () in
  let id = enter t ~name ?parent ?req start in
  let v = f id in
  leave t id ~name ?parent ~start (Unix.gettimeofday ());
  v

(* Record an already-timed interval. *)
let add t ~name ?parent ?req ~start stop =
  let id = enter t ~name ?parent ?req start in
  leave t id ~name ?parent ~start stop

let count t name = match Hashtbl.find_opt t.aggs name with Some a -> a.count | None -> 0
let total t name = match Hashtbl.find_opt t.aggs name with Some a -> a.total | None -> 0.
let self t name = match Hashtbl.find_opt t.aggs name with Some a -> a.self | None -> 0.

(* Mean self time of [name] in microseconds (0 when never recorded). *)
let mean_self_us t name =
  let c = count t name in
  if c = 0 then 0. else self t name /. float_of_int c *. 1e6

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc "# id\tname\tparent\treq\tstart\tstop\t(dropped %d)\n" t.dropped;
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.6f\t%.6f\n" i t.names.(i) t.parents.(i)
      t.reqs.(i) t.starts.(i) t.stops.(i)
  done

(* Exact event counts kept beside the spans (no timing). *)
let add_count t name n =
  let a = agg t name in
  a.count <- a.count + n
