module E = Search_numerics.Search_error

type policy = { attempts : int }

let none = { attempts = 1 }

let immediate ~attempts =
  if attempts < 1 then
    E.invalid ~where:"Retry.immediate" "need at least one attempt";
  { attempts }

let run ~policy ~task f =
  let rec go attempt =
    match f ~attempt with
    | v -> Ok v
    | exception exn ->
        let err = E.classify ~task ~attempt exn in
        if E.retryable err && attempt + 1 < policy.attempts then go (attempt + 1)
        else Error err
  in
  go 0
