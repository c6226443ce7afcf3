type entry = { rule : string; path : string; line : int }
type t = { items : entry list }

let empty = { items = [] }

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse_lines entry contents =
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match split_words (strip_comment line) with
        | [] -> go (lineno + 1) acc rest
        | words -> (
            match entry ~lineno line words with
            | Ok e -> go (lineno + 1) (e :: acc) rest
            | Error _ as err -> err))
  in
  go 1 [] (String.split_on_char '\n' contents)

let parse contents =
  parse_lines
    (fun ~lineno line -> function
      | [ rule; path ] -> Ok { rule; path; line = lineno }
      | _ ->
          Error
            (Printf.sprintf
               "lint.allow:%d: expected '<rule-id> <path>' (plus optional # \
                comment), got %S"
               lineno (String.trim line)))
    contents
  |> Result.map (fun items -> { items })

(* Open errors already carry the path, read errors (a directory) do not. *)
let load_with parse ~empty path =
  if not (Sys.file_exists path) then Ok empty
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | contents -> parse contents
    | exception Sys_error reason ->
        Error
          (if String.starts_with ~prefix:(path ^ ": ") reason then reason
           else Printf.sprintf "%s: %s" path reason)

let load = load_with parse ~empty

let permits t ~rule ~file =
  List.exists
    (fun e -> (e.rule = "*" || String.equal e.rule rule) && String.equal e.path file)
    t.items

(* An entry is stale when its rule was in scope for this run (selected
   by [--rules], or uncatalogued) and it matched no finding, kept or
   suppressed.  One definition for every
   entry family so the three staleness reports cannot drift. *)
let stale t ~in_scope ~findings =
  List.filter_map
    (fun { rule; path; line } ->
      if
        in_scope rule
        && not
             (List.exists
                (fun f ->
                  (String.equal rule "*" || String.equal rule f.Finding.rule)
                  && String.equal path f.Finding.file)
                findings)
      then Some (rule, path, line)
      else None)
    t.items
