(* Discovery and loading of the .cmt/.cmti artefacts dune emits
   (-bin-annot is on by default; the @check alias builds them for
   executables too).  Every rule works on the Typedtree because it is
   the only representation where names are *resolved*: a call written
   [Pool.async] in one module and [Search_exec.Pool.async] in another is
   the same [Path.t], [open]s and module aliases are explicit, and
   locations still point into the original source.

   Discovery order is sorted, so every later stage that folds over
   units does so in a deterministic order regardless of the worker-pool
   size. *)

type unit_info = {
  cmt_path : string;
  modname : string;
  source : string option;
  digest : string option;
  structure : Typedtree.structure option;
  signature : Typedtree.signature option;
}

(* Where the artefacts live.  Run from a checkout the cmts are under
   [_build/default]; run from inside the build tree (the [@lint] dune
   alias executes with the context root as cwd) they sit next to the
   copied sources. *)
let build_dir ~root =
  let candidate = Filename.concat root (Filename.concat "_build" "default") in
  if Sys.file_exists candidate && Sys.is_directory candidate then candidate
  else root

(* Sorted recursive walk of [base/dir] for each [dir], keeping files
   that satisfy [keep] and entering directories that satisfy [enter]. *)
let walk ~enter ~keep ~base ~dirs =
  let acc = ref [] in
  let rec go rel =
    let abs = Filename.concat base rel in
    match Sys.is_directory abs with
    | exception Sys_error _ -> ()
    | false -> if keep rel then acc := rel :: !acc
    | true ->
        if enter (Filename.basename rel) then
          Array.iter
            (fun entry -> go (rel ^ "/" ^ entry))
            (let entries = Sys.readdir abs in
             Array.sort String.compare entries;
             entries)
  in
  List.iter
    (fun dir -> if Sys.file_exists (Filename.concat base dir) then go dir)
    dirs;
  List.sort String.compare !acc

let has_suffix suffixes name =
  List.exists (fun s -> Filename.check_suffix name s) suffixes

let discover_sources ~root ~dirs =
  walk ~base:root ~dirs
    ~enter:(fun name ->
      not
        (name = "_build" || name = "_opam"
        || (String.length name > 0 && name.[0] = '.')))
    ~keep:(has_suffix [ ".ml"; ".mli" ])

(* Dot-directories are entered: dune keeps objects under
   [.objs]/[.eobjs]. *)
let discover ~build_dir ~dirs =
  walk ~base:build_dir ~dirs ~enter:(fun _ -> true)
    ~keep:(has_suffix [ ".cmt"; ".cmti" ])

(* [Cmt_format.read_cmt] funnels through compiler-libs unmarshalling
   helpers whose domain-safety nobody guarantees; loads are serialised
   under one mutex.  The pure rule walks downstream run in parallel. *)
let read_mutex = Mutex.create ()

let load ~build_dir cmt_path =
  let abs = Filename.concat build_dir cmt_path in
  match Mutex.protect read_mutex (fun () -> Cmt_format.read_cmt abs) with
  | exception e ->
      Error
        (Finding.v ~rule:"cmt-load" ~severity:Finding.Error ~file:cmt_path
           ~loc:(Location.in_file cmt_path)
           ~suggestion:"rebuild with `dune build @check` and rerun"
           (Printf.sprintf "cannot load cmt artefact: %s"
              (Printexc.to_string e)))
  | cmt ->
      let structure, signature =
        match cmt.Cmt_format.cmt_annots with
        | Cmt_format.Implementation st -> (Some st, None)
        | Cmt_format.Interface sg -> (None, Some sg)
        | Cmt_format.Packed _ | Cmt_format.Partial_implementation _
        | Cmt_format.Partial_interface _ ->
            (None, None)
      in
      Ok
        {
          cmt_path;
          modname = cmt.Cmt_format.cmt_modname;
          source = cmt.Cmt_format.cmt_sourcefile;
          digest = cmt.Cmt_format.cmt_source_digest;
          structure;
          signature;
        }

(* One unit per compilation-unit name and kind: dune may leave both
   fresh and stale spellings around (e.g. a shared test [dune__exe]
   wrapper); the sorted first occurrence wins, deterministically. *)
let dedup units =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun u ->
      let key = (u.modname, Option.is_some u.signature) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    units

(* A source is covered by the unit of its own kind that records it;
   no such unit, or one compiled from different bytes, means the
   report would silently be about another tree. *)
let freshness ~root ~sources units =
  let recorded = Hashtbl.create 256 in
  List.iter
    (fun u ->
      match u.source with
      | Some src
        when Bool.equal (Filename.check_suffix src ".mli")
               (Option.is_some u.signature)
             && not (Hashtbl.mem recorded src) ->
          Hashtbl.add recorded src u.digest
      | _ -> ())
    units;
  List.filter_map
    (fun src ->
      let finding rule message =
        Some
          (Finding.v ~rule ~severity:Finding.Error ~file:src
             ~loc:(Location.in_file src)
             ~suggestion:"rebuild with `dune build @check` and rerun" message)
      in
      match Hashtbl.find_opt recorded src with
      | None -> finding "cmt-missing" "no typed artefact for this source"
      | Some digest ->
          let current =
            try Some (Digest.file (Filename.concat root src))
            with Sys_error _ -> None
          in
          if Option.equal String.equal digest current then None
          else
            finding "cmt-stale"
              "typed artefact was compiled from a different version of \
               this source")
    sources

let rec exports_of_signature prefix (sg : Types.signature) =
  List.concat_map
    (function
      | Types.Sig_value (id, vd, _) ->
          [ (prefix ^ Ident.name id, vd.Types.val_loc) ]
      | Types.Sig_module (id, _, md, _, _) -> (
          match md.Types.md_type with
          | Types.Mty_signature sub ->
              exports_of_signature (prefix ^ Ident.name id ^ ".") sub
          | _ -> [])
      | _ -> [])
    sg

let exports u =
  Option.map
    (fun sg ->
      ( u.modname,
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (exports_of_signature "" sg.Typedtree.sig_type) ))
    u.signature

(* Module aliases are collected by ident, whatever their scope: stamps
   are unique within a unit, so one flat table serves the top level,
   nested structures and [let module] bodies alike. *)
let unalias u =
  let table = Ident.Tbl.create 8 in
  let rec target (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some p
    | Typedtree.Tmod_constraint (inner, _, _, _) -> target inner
    | _ -> None
  in
  let add id me =
    match (id, target me) with
    | Some id, Some p -> Ident.Tbl.replace table id p
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      module_binding =
        (fun self mb ->
          add mb.Typedtree.mb_id mb.Typedtree.mb_expr;
          super.module_binding self mb);
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_letmodule (id, _, _, me, _) -> add id me
          | _ -> ());
          super.expr self e);
    }
  in
  Option.iter (it.structure it) u.structure;
  let rec go fuel (p : Path.t) =
    match p with
    | Path.Pident id -> (
        match Ident.Tbl.find_opt table id with
        | Some p' when fuel > 0 -> go (fuel - 1) p'
        | _ -> p)
    | Path.Pdot (q, s) -> Path.Pdot (go fuel q, s)
    | Path.Papply _ | Path.Pextra_ty _ -> p
  in
  go 16
