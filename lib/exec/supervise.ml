module Json = Search_numerics.Json
module Budget = Search_resilience.Budget
module Retry = Search_resilience.Retry
module Chaos = Search_resilience.Chaos
module Journal = Search_resilience.Journal

type spec = { budget : Budget.t; retry : Retry.policy; chaos : Chaos.t }

let default =
  { budget = Budget.unlimited; retry = Retry.none; chaos = Chaos.disabled }

type 'b persist = {
  journal : Journal.t;
  encode : 'b -> Json.t;
  decode : Json.t -> ('b, string) result;
}

let run_one spec ~task x f =
  Retry.run ~policy:spec.retry ~task (fun ~attempt ->
      Chaos.run spec.chaos ~task ~attempt (fun () ->
          f (Budget.start spec.budget ~task) x))

(* Split a list into consecutive groups of [n] (last may be shorter). *)
let chunked n items =
  let rec loop acc cur c = function
    | [] -> List.rev (match cur with [] -> acc | _ -> List.rev cur :: acc)
    | x :: rest ->
        if Int.equal c n then loop (List.rev cur :: acc) [ x ] 1 rest
        else loop acc (x :: cur) (c + 1) rest
  in
  loop [] [] 0 items

let[@pool_entry] [@hot] map pool ?(spec = default) ?persist ?(chunk = 1) ~task
    ~f items =
  if chunk < 1 then invalid_arg "Supervise.map: chunk must be >= 1";
  let cached key =
    match persist with
    | None -> None
    | Some p -> (
        match Option.map p.decode (Journal.find p.journal key) with
        | Some (Ok v) -> Some v
        | Some (Error _) | None -> None)
  in
  let eval key x =
    let r = run_one spec ~task:key x f in
    (match (r, persist) with
    | Ok v, Some p ->
        (* checkpoint from the worker, before anything can kill the run *)
        Journal.record p.journal ~key (p.encode v)
    | Ok _, None | Error _, _ -> ());
    r
  in
  (* Cache hits are resolved before dispatch (a resumed run reschedules
     only what is missing); the rest is grouped so that one pool task
     carries [chunk] items.  Each item keeps its own task key, and with
     it its own chaos plan, retry loop, budget meter and checkpoint
     record — chunking changes scheduling granularity, never per-item
     semantics, so outputs stay byte-identical at any chunk size. *)
  let groups =
    List.mapi
      (fun i x ->
        let key = task i x in
        match cached key with Some v -> `Cached v | None -> `Todo (key, x))
      items
    |> chunked chunk
    |> List.map (fun slots ->
           if List.exists (function `Todo _ -> true | `Cached _ -> false) slots
           then
             `Running
               (Pool.async pool (fun () ->
                    List.map
                      (function
                        | `Cached v -> Ok v | `Todo (key, x) -> eval key x)
                      slots))
           else
             `Done
               (List.map
                  (function `Cached v -> Ok v | `Todo _ -> assert false)
                  slots))
  in
  List.concat_map
    (function `Done rs -> rs | `Running p -> Pool.await p)
    groups
