(* The offline-report workload: Report.build plus a certificate λ-grid
   per instance, over a seeded grid, in this process on a domain pool
   (no socket).  The CLI [report] / paper-table path. *)

module FS = Faulty_search

type inst = int * int * int * float * float

let problem (m, k, f, n, _) = FS.Problem.make ~m ~k ~f ~horizon:n ()

let lambdas (_, _, _, _, lambda) =
  FS.Certificate.lambda_grid ~lo:(0.97 *. lambda) ~hi:(1.03 *. lambda) ~count:3

(* The certificate verdicts of one instance over its λ-grid; the grid
   is checked by the sharded entry points at one job (the instance itself
   is already a pool task). *)
let verdicts ((m, k, f, n, _) as i) turns =
  let p = FS.Params.make ~m ~k ~f in
  if m = 2 then FS.Certificate.check_line_sharded ~jobs:1 ~turns ~f ~lambdas:(lambdas i) ~n ()
  else
    FS.Certificate.check_orc_sharded ~jobs:1 ~turns ~demand:(FS.Params.q p)
      ~lambdas:(lambdas i) ~n ()


let render vs =
  String.concat ""
    (List.map (fun (l, v) -> Format.asprintf "lambda %.17g: %a\n" l FS.Certificate.pp_verdict v) vs)

(* Everything one instance contributes to the digest. *)
let output i =
  let problem = problem i in
  let md = FS.Report.to_markdown (FS.Report.build problem) in
  let turns = Option.get (FS.Solve.orc_turns (FS.Solve.solve problem)) in
  md ^ render (verdicts i turns)

let digest outputs = Digest.to_hex (Digest.string (String.concat "\n" outputs))

(* The reference: every instance computed directly, one after another. *)
let reference grid = digest (Array.to_list (Array.map output grid))

(* One pass over the grid on [pool]: the outputs in grid order with the
   time each instance took inside its task, or the error. *)
let pass pool grid =
  FS.Supervise.map pool
    ~task:(fun i _ -> Printf.sprintf "perfbench/instance-%d" i)
    ~f:(fun _meter i ->
      let t0 = Unix.gettimeofday () in
      let s = output i in
      (s, Unix.gettimeofday () -. t0))
    (Array.to_list grid)
