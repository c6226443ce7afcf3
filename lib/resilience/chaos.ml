module E = Search_numerics.Search_error
module Prng = Search_numerics.Prng

(* Each task suffers a first fault with probability [fault_rate],
   escalating geometrically up to [fault_cap] faults; with probability
   [delay_rate] it is also delayed each attempt. *)
let fault_rate = 0.25
let fault_cap = 2
let delay_rate = 0.25

type t = int option (* the seed *)

let disabled = None
let make ~seed () = Some seed
let max_faults = function None -> 0 | Some _ -> fault_cap

type plan = { faults : int; kinds : string list; delay : float }

let no_faults = { faults = 0; kinds = []; delay = 0. }

(* Fold the task key's digest into a seed perturbation so distinct tasks
   get independent streams.  [Digest.string] (MD5) is deterministic across
   runs, unlike the lint-banned [Hashtbl.hash]. *)
let task_salt task =
  let d = Digest.string task in
  let h = ref 0 in
  for i = 0 to 6 do
    h := (!h lsl 8) lor Char.code d.[i]
  done;
  !h

let compute_plan seed ~task =
  let g = Prng.make ~seed:(seed lxor task_salt task) in
  let u, g = Prng.float g in
  let faults, g =
    if u >= fault_rate then (0, g)
    else
      (* geometric escalation: each extra fault needs another hit *)
      let rec extra n g =
        if n >= fault_cap then (n, g)
        else
          let u, g = Prng.float g in
          if u < fault_rate then extra (n + 1) g else (n, g)
      in
      extra 1 g
  in
  let rec kinds n g acc =
    if n = 0 then (List.rev acc, g)
    else
      let b, g = Prng.bool g in
      kinds (n - 1) g ((if b then "worker-death" else "exception") :: acc)
  in
  let kinds, g = kinds faults g [] in
  let u, _ = Prng.float g in
  let delay = if u < delay_rate then u *. 0.002 else 0. in
  { faults; kinds; delay }

let plan t ~task =
  match t with None -> no_faults | Some seed -> compute_plan seed ~task

let plan_equal a b =
  Int.equal a.faults b.faults
  && List.equal String.equal a.kinds b.kinds
  && Float.equal a.delay b.delay

(* [@real_io]: the injected delay sleeps for real.  Chaos is a
   production/bench-only knob — DST scenarios never construct a chaos
   config, so the simulation stays on the virtual clock — which makes
   this an audited barrier for the sim-hygiene pass. *)
let[@real_io] run t ~task ~attempt f =
  match t with
  | None -> f ()
  | Some seed ->
      let p = compute_plan seed ~task in
      if p.delay > 0. then Unix.sleepf p.delay;
      if attempt < p.faults then
        E.raise_
          (E.Injected_fault
             { task; attempt; kind = List.nth p.kinds attempt })
      else f ()
