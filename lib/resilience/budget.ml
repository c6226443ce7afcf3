module E = Search_numerics.Search_error

type t = int option

let unlimited = None

let make ~steps =
  if steps <= 0 then
    E.invalid ~where:"Budget.make" "steps limit must be positive";
  Some steps

type meter = { limit : int option; task : string; mutable consumed : int }

let start limit ~task = { limit; task; consumed = 0 }

let step ?(cost = 1) m =
  m.consumed <- m.consumed + cost;
  match m.limit with
  | Some limit when m.consumed > limit ->
      E.raise_
        (E.Budget_exceeded
           {
             task = m.task;
             resource = E.Steps;
             limit = float_of_int limit;
             spent = float_of_int m.consumed;
           })
  | Some _ | None -> ()
