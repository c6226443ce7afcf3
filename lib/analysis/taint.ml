(* Interprocedural nondeterminism taint.

   Sources are the same clocks and PRNG entry points the per-file
   [nondet] rule knows, but here a def is tainted when it *reaches* one
   through any chain of top-level calls — the pure-looking helper three
   calls away from [Random.int] gets reported too, with the full chain.

   Audited files (the [deep-nondet] entries in lint.allow: metrics,
   budget, lockfile) are taint *barriers*: their defs still produce
   findings — which the allowlist then suppresses, keeping the entries
   visibly in use — but taint does not propagate through them to their
   callers.  That is the audited-sink contract: a caller of
   [Metrics.record] is not nondeterministic because the metrics file
   timestamps itself.

   Marks propagate callee -> caller over references on {!Flow.fixpoint},
   so each recorded witness is a shortest chain. *)

let source_names =
  [
    "Sys.time";
    "Unix.gettimeofday"; "Unix.time"; "Unix.times";
    "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.randomize";
    "Domain.self";
  ]

let is_source name =
  let n = Callgraph.strip_stdlib name in
  String.starts_with ~prefix:"Random." n || List.mem n source_names

type mark =
  | Direct of { src : string; dloc : Location.t }
  | Via of { callee : string; vloc : Location.t }

let findings ~audited (g : Callgraph.t) =
  let audited_def name =
    match Callgraph.find_def g name with
    | Some d -> audited d.Callgraph.file
    | None -> false
  in
  let marks =
    Flow.fixpoint g
      ~init:(fun d ->
        List.find_map
          (fun (r : Callgraph.reference) ->
            if is_source r.target then
              Some
                (Direct { src = r.Callgraph.target; dloc = r.Callgraph.rloc })
            else None)
          d.Callgraph.refs)
      ~step:(fun marked d ->
        if Option.is_some (marked d.Callgraph.name) then None
        else
          List.find_map
            (fun (r : Callgraph.reference) ->
              if
                Option.is_some (marked r.Callgraph.target)
                && not (audited_def r.Callgraph.target)
              then
                Some
                  (Via { callee = r.Callgraph.target; vloc = r.Callgraph.rloc })
              else None)
            d.Callgraph.refs)
  in
  let rec chain_of name fuel =
    let disp = Flow.human name in
    if fuel = 0 then [ disp; "..." ]
    else
      match marks name with
      | Some (Direct { src; _ }) ->
          [ disp; Callgraph.strip_stdlib src ]
      | Some (Via { callee; _ }) -> disp :: chain_of callee (fuel - 1)
      | None -> [ disp ]
  in
  List.filter_map
    (fun (d : Callgraph.def) ->
      match marks d.Callgraph.name with
      | None -> None
      | Some mark ->
          let loc =
            match mark with
            | Direct { dloc; _ } -> dloc
            | Via { vloc; _ } -> vloc
          in
          Some
            (Finding.v ~rule:"deep-nondet" ~severity:Finding.Error
               ~file:d.Callgraph.file ~loc
               ~suggestion:
                 "thread an explicit Prng.t / clock through, or audit the \
                  file under deep-nondet in lint.allow"
               (Printf.sprintf "nondeterminism reaches %s: %s"
                  d.Callgraph.display
                  (String.concat " -> " (chain_of d.Callgraph.name 12)))))
    g.Callgraph.sorted_defs
