module Lazy_seq = Search_numerics.Lazy_seq
module Kahan = Search_numerics.Kahan

type t = { seq : float Lazy_seq.t; sums : float Lazy_seq.t }

let wrap seq = { seq; sums = Lazy_seq.partial_sums seq }

let of_fun f = wrap (Lazy_seq.of_fun f)
let of_list_then prefix tail = wrap (Lazy_seq.of_list_then prefix tail)

let geometric ?(scale = 1.) ~alpha () =
  if alpha <= 0. then invalid_arg "Turning.geometric: need alpha > 0";
  if scale <= 0. then invalid_arg "Turning.geometric: need scale > 0";
  of_fun (fun i -> scale *. (alpha ** float_of_int i))

let get t i =
  let v = Lazy_seq.get t.seq i in
  if v < 0. || Float.is_nan v then
    invalid_arg (Printf.sprintf "Turning.get: t_%d = %g is invalid" i v);
  v

let partial_sum t i =
  if i < 0 then invalid_arg "Turning.partial_sum: negative index"
  else if i = 0 then 0.
  else Lazy_seq.get t.sums i

let nondecreasing_prefix t ~n =
  let rec check i prev =
    if i > n then true
    else
      let v = get t i in
      if v >= prev then check (i + 1) v else false
  in
  check 1 0.

(* ------------------------------------------------------------------ *)
(* Compiled (flat-array) view                                          *)

(* The lazy representation pays a mutex acquisition plus a hashtable
   lookup per element access — fine for construction and memoisation,
   hostile in the covering/adversary inner loops that re-probe the same
   prefix thousands of times.  A compiled view caches the prefix in
   plain float arrays.  The partial sums replay the exact Kahan chain of
   [Lazy_seq.partial_sums] (same values, same order, same operations),
   so every float read through the compiled view is bit-identical to the
   lazy path — outputs cannot drift between the two kernels.

   The view grows by doubling and is NOT domain-safe: it is a per-task
   scratch structure (each parallel λ-point / sweep cell compiles its
   own view over the shared, mutex-memoised source sequence). *)

type compiled = {
  src : t;
  mutable turns : float array; (* turns.(i-1) = t_i, 1 <= i <= len *)
  mutable sums : float array; (* sums.(i-1) = value of the Kahan chain at i *)
  mutable acc : Kahan.t;
  mutable len : int;
}

let compile ?(hint = 64) src =
  let cap = Stdlib.max 1 hint in
  {
    src;
    turns = Array.make cap 0.;
    sums = Array.make cap 0.;
    acc = Kahan.zero;
    len = 0;
  }

let ensure c i =
  if c.len < i then begin
    if Array.length c.turns < i then begin
      let cap = Stdlib.max i (2 * Array.length c.turns) in
      let grow a = Array.append a (Array.make (cap - Array.length a) 0.) in
      c.turns <- grow c.turns;
      c.sums <- grow c.sums
    end;
    (* pull raw values: validation happens in [compiled_get], exactly
       where the lazy path validates (partial sums never validate) *)
    for j = c.len + 1 to i do
      let v = Lazy_seq.get c.src.seq j in
      c.turns.(j - 1) <- v;
      c.acc <- Kahan.add c.acc v;
      c.sums.(j - 1) <- Kahan.value c.acc
    done;
    c.len <- i
  end

let[@hot] compiled_get c i =
  if i < 1 then invalid_arg "Turning.compiled_get: index must be >= 1";
  ensure c i;
  let v = c.turns.(i - 1) in
  if v < 0. || Float.is_nan v then
    invalid_arg (Printf.sprintf "Turning.get: t_%d = %g is invalid" i v);
  v

let[@hot] compiled_partial_sum c i =
  if i < 0 then invalid_arg "Turning.compiled_partial_sum: negative index"
  else if i = 0 then 0.
  else begin
    ensure c i;
    c.sums.(i - 1)
  end

let[@hot] compiled_prefix_walk c depth =
  (* Steady-state read path: the prefix must already be materialised
     ([ensure] grows arrays and replays the Kahan chain — an
     allocation the walk must not pay), so out-of-range depths are a
     caller bug, not a growth trigger. *)
  if depth < 0 then
    invalid_arg "Turning.compiled_prefix_walk: negative depth";
  if depth > c.len then
    invalid_arg
      (Printf.sprintf
         "Turning.compiled_prefix_walk: depth %d exceeds compiled prefix %d"
         depth c.len);
  let total = ref 0. in
  for i = 1 to depth do
    total := !total +. c.sums.(i - 1)
  done;
  !total
