(* The hot-path performance analysis family: allocation budgets for
   [@hot] roots and an event-loop liveness rule for [@event_loop]
   roots, both interprocedural over the {!Callgraph}.

   Allocation budgets.  A [@hot] def is the root of a kernel the
   raw-speed pass made allocation-free (the adversary's compiled scan,
   the turning-prefix walk, the flat first-visit probe).  The pass sums
   the statically classified allocation sites of every def
   {!Flow.reach} finds from the root, and compares the total against
   the root's [lint.budget] entry (default 0).  Exceeding the budget
   yields a [hotpath-alloc] finding placed at the offending site, with
   the full call chain from the root as witness: [Turning.compiled_get -> Turning.ensure -> <array
   allocation at lib/strategy/turning.ml:90>].

   Event-loop liveness.  An [@event_loop] def owns a select loop whose
   latency contract dies the moment a blocking call sneaks into a
   handler.  The pass reaches from the root without entering
   [@nonblocking] barriers (audited: nonblocking-fd I/O handlers) or
   calls that are themselves blocking primitives, and flags every
   reference to a blocking primitive in the reached region as
   [hotpath-blocking], again with the call chain.  The root's own
   [Unix.select] is exempt: that wait *is* the loop.  References (not
   just calls) are scanned so that capturing [Unix.sleepf] as a default
   argument is caught too — exactly the retry-backoff bug this rule
   exists to keep out. *)

let blocking_names =
  [
    "Unix.sleep"; "Unix.sleepf"; "Thread.delay";
    "Unix.read"; "Unix.write"; "Unix.write_substring"; "Unix.single_write";
    "Unix.select"; "Unix.wait"; "Unix.waitpid"; "Unix.system";
    "Mutex.lock"; "Condition.wait"; "Pool.await";
  ]

let is_blocking name = List.mem (Flow.human name) blocking_names

let hot_roots g =
  List.filter (fun (d : Callgraph.def) -> d.Callgraph.hot)
    g.Callgraph.sorted_defs

let loop_roots g =
  List.filter
    (fun (d : Callgraph.def) -> d.Callgraph.event_loop)
    g.Callgraph.sorted_defs

(* ------------------------------------------------------------------ *)
(* allocation budgets                                                  *)

let alloc_findings ~budget g =
  List.filter_map
    (fun (root : Callgraph.def) ->
      let order, chain = Flow.reach g root ~enter:(fun _ -> true) in
      let sites =
        List.concat_map
          (fun (d : Callgraph.def) ->
            List.map (fun a -> (d, a)) d.Callgraph.allocs)
          order
      in
      let count = List.length sites in
      let allowed =
        Option.value
          (Budget.find budget root.Callgraph.display)
          ~default:0
      in
      if count <= allowed then None
      else
        match sites with
        | [] -> None
        | (d, a) :: _ ->
            let line = a.Callgraph.aloc.Location.loc_start.Lexing.pos_lnum in
            Some
              (Finding.v ~rule:"hotpath-alloc" ~severity:Finding.Error
                 ~file:d.Callgraph.file ~loc:a.Callgraph.aloc
                 ~suggestion:
                   "remove the allocation from the hot path, or raise the \
                    root's lint.budget entry with a justifying comment"
                 (Printf.sprintf
                    "allocation budget exceeded for %s: %d reachable \
                     site%s, budget %d: %s -> <%s at %s:%d>"
                    root.Callgraph.display count
                    (if count = 1 then "" else "s")
                    allowed
                    (chain d)
                    (Callgraph.alloc_kind_to_string a.Callgraph.akind)
                    d.Callgraph.file line)))
    (hot_roots g)

(* ------------------------------------------------------------------ *)
(* event-loop liveness                                                 *)

let blocking_findings g =
  List.concat_map
    (fun (root : Callgraph.def) ->
      let order, chain =
        Flow.reach g root ~enter:(fun (d : Callgraph.def) ->
            (not d.Callgraph.nonblocking)
            && not (is_blocking d.Callgraph.name))
      in
      List.concat_map
        (fun (d : Callgraph.def) ->
          let is_root = String.equal d.Callgraph.name root.Callgraph.name in
          List.filter_map
            (fun (r : Callgraph.reference) ->
              let disp = Flow.human r.Callgraph.target in
              if
                List.mem disp blocking_names
                && not (is_root && String.equal disp "Unix.select")
              then
                Some
                  (Finding.v ~rule:"hotpath-blocking" ~severity:Finding.Error
                     ~file:d.Callgraph.file ~loc:r.Callgraph.rloc
                     ~suggestion:
                       "make the operation nonblocking, move it off the loop \
                        thread, or audit the handler with [@nonblocking] / a \
                        lint.allow entry"
                     (Printf.sprintf
                        "blocking call reaches the event loop: %s -> %s"
                        (chain d) disp))
              else None)
            d.Callgraph.refs)
        order)
    (loop_roots g)

let findings ~budget g =
  alloc_findings ~budget g @ blocking_findings g

let stale_budget ~budget g =
  Budget.stale budget
    ~roots:
      (List.map (fun (d : Callgraph.def) -> d.Callgraph.display) (hot_roots g))
