let human name = Callgraph.display_name (Callgraph.strip_stdlib name)

let reach g (root : Callgraph.def) ~enter =
  let parent : (string, string) Hashtbl.t = Hashtbl.create 64 in
  (* the root is its own parent: visited, and where chains stop *)
  Hashtbl.replace parent root.Callgraph.name root.Callgraph.name;
  let rec layers acc = function
    | [] -> List.rev acc
    | frontier ->
        let next =
          List.concat_map
            (fun (d : Callgraph.def) ->
              List.filter_map
                (fun (h : Callgraph.hcall) ->
                  let t = h.Callgraph.hname in
                  if Hashtbl.mem parent t then None
                  else
                    match Callgraph.find_def g t with
                    | Some td when enter td ->
                        Hashtbl.replace parent t d.Callgraph.name;
                        Some td
                    | _ -> None)
                d.Callgraph.hcalls)
            frontier
        in
        layers (List.rev_append next acc) next
  in
  let chain (d : Callgraph.def) =
    let rec back n acc =
      if String.equal n root.Callgraph.name then n :: acc
      else back (Hashtbl.find parent n) (n :: acc)
    in
    String.concat " -> " (List.map human (back d.Callgraph.name []))
  in
  (layers [ root ] [ root ], chain)

let fixpoint (g : Callgraph.t) ~init ~step =
  let values = Hashtbl.create 256 in
  List.iter
    (fun (d : Callgraph.def) ->
      Option.iter (Hashtbl.replace values d.Callgraph.name) (init d))
    g.Callgraph.sorted_defs;
  let get = Hashtbl.find_opt values in
  let rec rounds () =
    let staged =
      List.filter_map
        (fun (d : Callgraph.def) ->
          Option.map (fun v -> (d.Callgraph.name, v)) (step get d))
        g.Callgraph.sorted_defs
    in
    if staged <> [] then begin
      List.iter (fun (n, v) -> Hashtbl.replace values n v) staged;
      rounds ()
    end
  in
  rounds ();
  get
