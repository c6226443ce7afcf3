(* The export-use pass.  One fold over the call graph records, per
   referenced canonical name, whether any non-test unit other than the
   name's own references it; each exported [lib/] value is then looked
   up by its canonical name [Unit.path.to.value].  A reference from the
   value's own unit does not count: an export its module alone uses is
   a [val] too many, not a live API.

   Module aliases and abstract module types are absent from
   {!Cmt_loader.exports}, so values reached only through them are never
   reported: the pass under-approximates, as the exception-flow pass
   does. *)

let unit_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let findings ~exports (g : Callgraph.t) =
  (* canonical name -> referenced from a non-test unit *)
  let callers = Hashtbl.create 1024 in
  List.iter
    (fun (d : Callgraph.def) ->
      let unit = unit_of d.Callgraph.name in
      let prod = not (String.starts_with ~prefix:"test/" d.Callgraph.file) in
      List.iter
        (fun (r : Callgraph.reference) ->
          let target = r.Callgraph.target in
          if
            (not (String.equal (unit_of target) unit))
            && (prod || not (Hashtbl.mem callers target))
          then Hashtbl.replace callers target prod)
        d.Callgraph.refs)
    g.Callgraph.sorted_defs;
  List.concat_map
    (fun (unit, values) ->
      List.filter_map
        (fun (value, (loc : Location.t)) ->
          let file = loc.Location.loc_start.Lexing.pos_fname in
          let name = Callgraph.display_name (unit ^ "." ^ value) in
          let finding rule severity message suggestion =
            Some (Finding.v ~rule ~severity ~file ~loc ~suggestion message)
          in
          if not (String.starts_with ~prefix:"lib/" file) then None
          else
            match Hashtbl.find_opt callers (unit ^ "." ^ value) with
            | Some true -> None
            | None ->
                finding "dead-export" Finding.Error
                  (Printf.sprintf
                     "%s is exported but no other unit references it" name)
                  "delete it, or drop only its val if its own module uses it"
            | Some false ->
                finding "test-only-export" Finding.Warning
                  (Printf.sprintf
                     "%s is exported but only test/ references it" name)
                  "delete it with the test that pins it, or unexport it and \
                   test it through its public caller")
        values)
    exports
