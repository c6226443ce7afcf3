(* The per-function allocation budget file (lint.budget).

   One line per [@hot] root: '<display-name> <count>', where the name
   is the human form of the def ("Adversary.compiled_scan") and the
   count is the number of statically reachable allocation sites the
   root is allowed.  Kernels carry 0; warm-path functions that allocate
   on cache growth carry an audited exact count with a justifying
   comment.  A root with no entry gets the strictest default: 0.

   Same file discipline as lint.allow, through its shared line parser
   and loader: '#' comments, staleness is detected (an entry naming no
   current [@hot] root), and parse errors are reported with the
   offending line. *)

type entry = { bname : string; bcount : int; bline : int }
type t = { items : entry list }

let empty = { items = [] }

let parse contents =
  Allow.parse_lines
    (fun ~lineno line -> function
      | [ bname; count ] -> (
          match int_of_string_opt count with
          | Some bcount when bcount >= 0 -> Ok { bname; bcount; bline = lineno }
          | Some _ ->
              Error
                (Printf.sprintf "lint.budget:%d: budget for %s must be >= 0"
                   lineno bname)
          | None ->
              Error
                (Printf.sprintf
                   "lint.budget:%d: expected an integer budget, got %S" lineno
                   count))
      | _ ->
          Error
            (Printf.sprintf
               "lint.budget:%d: expected '<function> <count>' (plus optional \
                # comment), got %S"
               lineno (String.trim line)))
    contents
  |> Result.map (fun items -> { items })

let load = Allow.load_with parse ~empty

let find t name =
  List.find_map
    (fun e -> if String.equal e.bname name then Some e.bcount else None)
    t.items

let entries_located t = List.map (fun e -> (e.bname, e.bcount, e.bline)) t.items

(* entries naming no live [@hot] root are stale, exactly like an
   allowlist entry matching no finding *)
let stale t ~roots =
  List.filter_map
    (fun e ->
      if List.exists (String.equal e.bname) roots then None
      else Some (e.bname, e.bline))
    t.items
