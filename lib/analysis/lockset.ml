(* Static race and lock-order analysis over the {!Callgraph}.

   Pooled-ness.  A def that calls a pool entry ([@pool_entry] in
   lib/exec, or [Domain.spawn]) contains a closure that will run on
   another domain; the analysis conservatively treats the whole def —
   and everything it reaches through top-level calls — as potentially
   parallel.  The must-hold pass then computes, per pooled def, the set
   of top-level mutexes held on *every* call path from a pooled root,
   so a helper only ever invoked under [Metrics.write_mutex] is not
   flagged for touching what that mutex guards.

   Races.  A top-level cell (ref / Hashtbl / container; [Atomic.t] is
   exempt, it is synchronised by construction) with at least one write
   anywhere is reported when a pooled def touches it with an empty
   effective lockset (locks held at the site ∪ must-hold of the def) —
   and also when every pooled access is guarded but by no *common*
   mutex, which serialises nothing.

   Deadlocks.  Acquisition-order edges h → l are collected from lexical
   nesting ([Mutex.protect l] while h is held) and from calls made with
   h held into defs that may acquire l; any cycle — including the self-loop of re-entering a held mutex,
   which OCaml's non-reentrant [Mutex.t] turns into a deadlock — is a
   finding. *)

module SS = Set.Make (String)

let suggestion_race =
  "guard the access with Mutex.protect on one designated mutex, switch the \
   cell to Atomic, or audit the file under deep-race in lint.allow"

(* ------------------------------------------------------------------ *)
(* pooled defs and the must-hold fixpoint                              *)

type job =
  | Submits of string  (** a pooled root: the pool entry it calls *)
  | Called_by of Callgraph.def  (** the first caller that pooled it *)

type pooled = { must : SS.t; job : job }

(* def name -> (referencing def, reference) in sorted def order; only
   references to other defs, self-references dropped.  [find_all]
   returns the latest binding first, hence the reversed fill. *)
let referencers (g : Callgraph.t) =
  let idx = Hashtbl.create 512 in
  List.iter
    (fun (c : Callgraph.def) ->
      List.iter
        (fun (r : Callgraph.reference) ->
          let t = r.Callgraph.target in
          if
            Hashtbl.mem g.Callgraph.defs t
            && not (String.equal t c.Callgraph.name)
          then Hashtbl.add idx t (c, r))
        (List.rev c.Callgraph.refs))
    (List.rev g.Callgraph.sorted_defs);
  Hashtbl.find_all idx

(* Pull-style: a def's must-hold set is the intersection, over its
   pooled referencers, of what they hold at the reference.  The value
   only descends once set, and its [Called_by] witness is fixed in the
   round that first pools the def, so job chains come out shortest. *)
let compute_pooled (g : Callgraph.t) =
  let referencers = referencers g in
  Flow.fixpoint g
    ~init:(fun d ->
      List.find_map
        (fun (r : Callgraph.reference) ->
          if
            Callgraph.is_entry g r.Callgraph.target
            && not (String.equal r.Callgraph.target d.Callgraph.name)
          then
            Some
              { must = SS.empty; job = Submits (Flow.human r.Callgraph.target) }
          else None)
        d.Callgraph.refs)
    ~step:(fun pooled d ->
      let contribs =
        List.filter_map
          (fun ((c : Callgraph.def), (r : Callgraph.reference)) ->
            Option.map
              (fun p -> (c, SS.union p.must (SS.of_list r.Callgraph.rheld)))
              (pooled c.Callgraph.name))
          (referencers d.Callgraph.name)
      in
      match (pooled d.Callgraph.name, contribs) with
      | Some { job = Submits _; _ }, _ | _, [] -> None
      | cur, (c0, m0) :: rest -> (
          let must =
            List.fold_left (fun acc (_, m) -> SS.inter acc m) m0 rest
          in
          match cur with
          | None -> Some { must; job = Called_by c0 }
          | Some p ->
              if SS.equal p.must must then None else Some { p with must }))

let job_chain pooled (d : Callgraph.def) =
  let rec back (d : Callgraph.def) fuel acc =
    if fuel = 0 then "..." :: acc
    else
      match pooled d.Callgraph.name with
      | Some { job = Called_by c; _ } ->
          back c (fuel - 1) (d.Callgraph.display :: acc)
      | Some { job = Submits e; _ } ->
          Printf.sprintf "%s{%s}" d.Callgraph.display e :: acc
      | None -> d.Callgraph.display :: acc
  in
  String.concat " -> " (back d 12 [])

(* ------------------------------------------------------------------ *)
(* race detection                                                      *)

type access = {
  acc_def : Callgraph.def;
  acc_loc : Location.t;
  acc_via : string option;  (** [Some mutator] for writes, [None] reads *)
  acc_eff : SS.t;  (** effective lockset: held at site ∪ must of def *)
}

let cell_accesses (g : Callgraph.t) pooled cell_name =
  List.concat_map
    (fun (d : Callgraph.def) ->
      match pooled d.Callgraph.name with
      | None -> []
      | Some p ->
          let writes =
            List.filter_map
              (fun (mu : Callgraph.mutation) ->
                if String.equal mu.Callgraph.cell cell_name then
                  Some
                    {
                      acc_def = d;
                      acc_loc = mu.Callgraph.mloc;
                      acc_via = Some mu.Callgraph.via;
                      acc_eff = SS.union p.must (SS.of_list mu.Callgraph.mheld);
                    }
                else None)
              d.Callgraph.mutations
          in
          let wlocs = List.map (fun a -> a.acc_loc) writes in
          let reads =
            List.filter_map
              (fun (r : Callgraph.reference) ->
                if
                  String.equal r.Callgraph.target cell_name
                  && not (List.mem r.Callgraph.rloc wlocs)
                then
                  Some
                    {
                      acc_def = d;
                      acc_loc = r.Callgraph.rloc;
                      acc_via = None;
                      acc_eff = SS.union p.must (SS.of_list r.Callgraph.rheld);
                    }
                else None)
              d.Callgraph.refs
          in
          writes @ reads)
    g.Callgraph.sorted_defs

let written_anywhere (g : Callgraph.t) cell_name =
  List.exists
    (fun (d : Callgraph.def) ->
      List.exists
        (fun (mu : Callgraph.mutation) ->
          String.equal mu.Callgraph.cell cell_name)
        d.Callgraph.mutations)
    g.Callgraph.sorted_defs

let race_findings (g : Callgraph.t) pooled =
  let cells =
    List.sort
      (fun (a : Callgraph.cell) b ->
        String.compare a.Callgraph.cell_name b.Callgraph.cell_name)
      (Hashtbl.fold (fun _ c acc -> c :: acc) g.Callgraph.cells [])
  in
  List.concat_map
    (fun (c : Callgraph.cell) ->
      if c.Callgraph.kind = Callgraph.Atomic then []
      else
        let name = c.Callgraph.cell_name in
        let accesses = cell_accesses g pooled name in
        if accesses = [] || not (written_anywhere g name) then []
        else
          let cell_where =
            Printf.sprintf "%s (defined %s:%d)"
              (Callgraph.display_name name)
              c.Callgraph.cell_file
              c.Callgraph.cell_loc.Location.loc_start.Lexing.pos_lnum
          in
          let unguarded =
            List.filter (fun a -> SS.is_empty a.acc_eff) accesses
          in
          if unguarded <> [] then
            (* one finding per (cell, def): the first unguarded site *)
            let seen = Hashtbl.create 8 in
            List.filter_map
              (fun a ->
                if Hashtbl.mem seen a.acc_def.Callgraph.name then None
                else begin
                  Hashtbl.add seen a.acc_def.Callgraph.name ();
                  let what =
                    match a.acc_via with
                    | Some via -> Printf.sprintf "write (%s)" via
                    | None -> "access"
                  in
                  Some
                    (Finding.v ~rule:"deep-race" ~severity:Finding.Error
                       ~file:a.acc_def.Callgraph.file ~loc:a.acc_loc
                       ~suggestion:suggestion_race
                       (Printf.sprintf
                          "possible data race on %s: unguarded %s on the \
                           pool (job chain: %s)"
                          cell_where what
                          (job_chain pooled a.acc_def)))
                end)
              unguarded
          else
            let common =
              List.fold_left
                (fun acc a ->
                  match acc with
                  | None -> Some a.acc_eff
                  | Some s -> Some (SS.inter s a.acc_eff))
                None accesses
            in
            match (common, accesses) with
            | Some inter, a0 :: _ :: _ when SS.is_empty inter ->
                [
                  Finding.v ~rule:"deep-race" ~severity:Finding.Error
                    ~file:a0.acc_def.Callgraph.file ~loc:a0.acc_loc
                    ~suggestion:suggestion_race
                    (Printf.sprintf
                       "inconsistent guards on %s: pooled accesses hold \
                        {%s} with no mutex in common"
                       cell_where
                       (String.concat "} {"
                          (List.map
                             (fun a ->
                               String.concat ","
                                 (List.map Callgraph.display_name
                                    (SS.elements a.acc_eff)))
                             accesses)));
                ]
            | _ -> [])
    cells

(* ------------------------------------------------------------------ *)
(* lock-order cycles                                                   *)

type edge = { e_from : string; e_to : string; e_loc : Location.t; e_file : string }

let may_acquire (g : Callgraph.t) =
  Flow.fixpoint g
    ~init:(fun d ->
      Some
        (SS.of_list
           (List.filter_map
              (fun (pe : Callgraph.protect_event) ->
                if Callgraph.mutex_defined g pe.Callgraph.lock then
                  Some pe.Callgraph.lock
                else None)
              d.Callgraph.protects)))
    ~step:(fun may d ->
      let cur = Option.value (may d.Callgraph.name) ~default:SS.empty in
      let next =
        List.fold_left
          (fun acc (r : Callgraph.reference) ->
            match may r.Callgraph.target with
            | Some s -> SS.union acc s
            | None -> acc)
          cur d.Callgraph.refs
      in
      if SS.equal next cur then None else Some next)

let order_edges (g : Callgraph.t) may =
  let edges = Hashtbl.create 16 in
  let add e_from e_to e_loc e_file =
    if
      Callgraph.mutex_defined g e_from
      && Callgraph.mutex_defined g e_to
      && not (Hashtbl.mem edges (e_from, e_to))
    then Hashtbl.add edges (e_from, e_to) { e_from; e_to; e_loc; e_file }
  in
  List.iter
    (fun (d : Callgraph.def) ->
      List.iter
        (fun (pe : Callgraph.protect_event) ->
          List.iter
            (fun h ->
              add h pe.Callgraph.lock pe.Callgraph.ploc d.Callgraph.file)
            pe.Callgraph.outer)
        d.Callgraph.protects;
      List.iter
        (fun (r : Callgraph.reference) ->
          if r.Callgraph.rheld <> [] then
            match may r.Callgraph.target with
            | Some acq ->
                List.iter
                  (fun h ->
                    SS.iter
                      (fun m -> add h m r.Callgraph.rloc d.Callgraph.file)
                      acq)
                  r.Callgraph.rheld
            | None -> ())
        d.Callgraph.refs)
    g.Callgraph.sorted_defs;
  List.sort
    (fun a b ->
      match String.compare a.e_from b.e_from with
      | 0 -> String.compare a.e_to b.e_to
      | n -> n)
    (Hashtbl.fold (fun _ e acc -> e :: acc) edges [])

(* Report each elementary cycle once, keyed by its lexicographically
   smallest node: DFS from that node over nodes >= it. *)
let cycle_findings edges =
  let succs n =
    List.filter (fun e -> String.equal e.e_from n) edges
  in
  let nodes =
    List.sort_uniq String.compare
      (List.concat_map (fun e -> [ e.e_from; e.e_to ]) edges)
  in
  List.filter_map
    (fun start ->
      let rec dfs path visited n =
        List.find_map
          (fun e ->
            if String.equal e.e_to start then Some (List.rev (e :: path))
            else if
              String.compare e.e_to start < 0 || SS.mem e.e_to visited
            then None
            else dfs (e :: path) (SS.add e.e_to visited) e.e_to)
          (succs n)
      in
      match dfs [] SS.empty start with
      | None -> None
      | Some cycle ->
          let names =
            String.concat " -> "
              (List.map (fun e -> Callgraph.display_name e.e_from) cycle
              @ [ Callgraph.display_name start ])
          in
          let witnesses =
            String.concat "; "
              (List.map
                 (fun e ->
                   Printf.sprintf "%s taken at %s:%d while %s held"
                     (Callgraph.display_name e.e_to)
                     e.e_file e.e_loc.Location.loc_start.Lexing.pos_lnum
                     (Callgraph.display_name e.e_from))
                 cycle)
          in
          let e0 = List.hd cycle in
          Some
            (Finding.v ~rule:"deep-lock-order" ~severity:Finding.Error
               ~file:e0.e_file ~loc:e0.e_loc
               ~suggestion:
                 "impose one global acquisition order (acquire mutexes in \
                  a fixed, documented order) or merge the critical sections"
               (Printf.sprintf "mutex acquisition-order cycle: %s (%s)"
                  names witnesses)))
    nodes

let findings (g : Callgraph.t) =
  let races = race_findings g (compute_pooled g) in
  let cycles = cycle_findings (order_edges g (may_acquire g)) in
  races @ cycles
