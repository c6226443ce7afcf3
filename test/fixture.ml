(* Compiled-fixture trees for the lint tests.  A fixture is a temporary
   root holding a few sources, compiled with ocamlc -bin-annot from
   that root so the .cmt/.cmti artefacts record repo-relative source
   paths ("lib/a.ml"), exactly as dune does; the lint then reads the
   tree the way it reads the real one. *)

module Driver = Search_analysis.Driver
module Finding = Search_analysis.Finding

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* A fresh root with [files] ((path, contents), nested directories
   created) under it; [lib/] always exists. *)
let make_tree files =
  let root = Filename.temp_file "faulty_search_lint" ".d" in
  Sys.remove root;
  mkdir_p (Filename.concat root "lib");
  List.iter
    (fun (name, contents) ->
      let path = Filename.concat root name in
      mkdir_p (Filename.dirname path);
      write_file path contents)
    files;
  root

(* Compile [files] in order ([.mli] before its [.ml], dependencies
   first), with every directory among them on the include path. *)
let compile root files =
  let includes =
    List.sort_uniq String.compare (List.map Filename.dirname files)
  in
  Sys.command
    (Printf.sprintf "cd %s && ocamlc -bin-annot -c %s %s >/dev/null 2>&1"
       (Filename.quote root)
       (String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) includes))
       (String.concat " " (List.map Filename.quote files)))
  = 0

(* [load] of a temporary file holding [text]: the lint.allow and
   lint.budget parsers are reached through their file loaders. *)
let load_text load text =
  let path = Filename.temp_file "faulty_search_lint" ".txt" in
  write_file path text;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> load path)

(* [make_tree] then [compile] every source, in list order. *)
let compiled_tree files =
  let root = make_tree files in
  let sources =
    List.filter
      (fun f ->
        Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
      (List.map fst files)
  in
  if not (compile root sources) then
    Alcotest.failf "fixture sources do not compile: %s"
      (String.concat " " sources);
  root

let have_ocamlc = lazy (Sys.command "ocamlc -version >/dev/null 2>&1" = 0)

(* The toolchain container always has ocamlc; degrade to a vacuous pass
   elsewhere rather than failing the suite over infrastructure. *)
let with_ocamlc k = if Lazy.force have_ocamlc then k () else ()

(* The full lint over [lib/] of a fixture root, as
   (findings, compiled units, stale budget entries). *)
let collect ?rules ?allow ?budget root =
  let o = Driver.run ~jobs:1 ?rules ?allow ?budget ~dirs:[ "lib" ] ~root () in
  (o.Driver.findings, o.Driver.units, o.Driver.budget_stale)

let by_rule rule findings =
  List.filter (fun f -> String.equal f.Finding.rule rule) findings

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0
