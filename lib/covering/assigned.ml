module Turning = Search_strategy.Turning

type setting = Line_symmetric | Orc_setting

type interval = { robot : int; left : float; turn : float }

type outcome =
  | Complete of interval list
  | Stuck of { frontier : float; assigned : interval list }

(* Relative slack on the legality constraints: the optimal strategies make
   them hold with equality, and we must not let rounding turn a tight
   assignment into a spurious Stuck. *)
let slack = 1e-9

let insert_sorted x xs =
  let rec go = function
    | [] -> [ x ]
    | y :: rest -> if x <= y then x :: y :: rest else y :: go rest
  in
  go xs

let build setting ~mu ~demand ~turns ~up_to ?(max_steps = 1_000_000) () =
  if mu <= 0. then invalid_arg "Assigned.build: need mu > 0";
  if demand < 1 then invalid_arg "Assigned.build: need demand >= 1";
  let k = Array.length turns in
  if k = 0 then invalid_arg "Assigned.build: no robots";
  let next_idx = Array.make k 1 in
  let load = Array.make k 0. in
  (* First unused turn strictly beyond the frontier; smaller turns can
     never serve as right ends again (the frontier only grows), so they
     are permanently skipped — "we can actually skip the corresponding
     turning point in the robot's strategy". *)
  let next_turn_beyond r a =
    let rec skip () =
      let t = Turning.get turns.(r) next_idx.(r) in
      if t <= a then begin
        next_idx.(r) <- next_idx.(r) + 1;
        skip ()
      end
      else t
    in
    skip ()
  in
  let candidate r a =
    let give = slack *. Float.max 1. (mu *. a) in
    match setting with
    | Orc_setting ->
        (* constraint (14): the robot's threshold L/mu must have reached
           the frontier before a new round can cover from there *)
        if load.(r) <= (mu *. a) +. give then Some (next_turn_beyond r a)
        else None
    | Line_symmetric ->
        (* constraint (5): t <= mu a - (sum of used turns) *)
        let t = next_turn_beyond r a in
        if load.(r) +. t <= (mu *. a) +. give then Some t else None
  in
  let rec loop multiset assigned steps =
    match multiset with
    | [] -> assert false
    | a :: rest ->
        if a >= up_to then Complete (List.rev assigned)
        else if steps >= max_steps then
          Stuck { frontier = a; assigned = List.rev assigned }
        else begin
          let best = ref None in
          for r = 0 to k - 1 do
            match candidate r a with
            | Some t -> (
                match !best with
                | Some (_, tb) when tb <= t -> ()
                | Some _ | None -> best := Some (r, t))
            | None -> ()
          done;
          match !best with
          | None -> Stuck { frontier = a; assigned = List.rev assigned }
          | Some (r, t) ->
              load.(r) <- load.(r) +. t;
              next_idx.(r) <- next_idx.(r) + 1;
              let multiset = insert_sorted t rest in
              loop multiset ({ robot = r; left = a; turn = t } :: assigned)
                (steps + 1)
        end
  in
  loop (List.init demand (fun _ -> 1.)) [] 0
