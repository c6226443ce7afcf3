(** Discovery and loading of the typed artefacts dune emits — the
    lint's one front end.

    Every rule consumes resolved names — which entity a spelling refers
    to after module aliases, [open]s and the library wrapper module —
    so the lint reads the Typedtree stored in [.cmt]/[.cmti] files
    rather than parsing sources.  Locations inside still point at the
    original repo-relative source files.  The source tree is walked
    too, so a source whose artefact is missing or out of date is a
    typed internal finding rather than a silently smaller report. *)

type unit_info = {
  cmt_path : string;  (** relative to the build dir *)
  modname : string;  (** compilation-unit name, e.g. ["Search_exec__Pool"] *)
  source : string option;
      (** repo-relative source recorded at compile time, when any *)
  digest : string option;  (** digest of that source at compile time *)
  structure : Typedtree.structure option;  (** a [.cmt] implementation *)
  signature : Typedtree.signature option;  (** a [.cmti] interface *)
}

val build_dir : root:string -> string
(** [_build/default] under [root] when present (a checkout), otherwise
    [root] itself (already inside a build context, as under the
    [@lint] alias). *)

val discover_sources : root:string -> dirs:string list -> string list
(** All [.ml]/[.mli] files under [root/dir] for each [dir], as sorted
    root-relative paths.  Directories named [_build], [_opam] or
    starting with ['.'] are skipped.  A [dir] that does not exist
    contributes nothing. *)

val discover : build_dir:string -> dirs:string list -> string list
(** All [.cmt] and [.cmti] paths under [dirs], sorted; relative to
    [build_dir]. *)

val load : build_dir:string -> string -> (unit_info, Finding.t) result
(** Load one artefact.  Serialised internally (compiler-libs
    unmarshalling is not known to be domain-safe); failures become a
    [cmt-load] finding, which the driver classifies as internal. *)

val dedup : unit_info list -> unit_info list
(** Keep the first unit per (compilation-unit name, artefact kind), in
    input order. *)

val freshness :
  root:string -> sources:string list -> unit_info list -> Finding.t list
(** One [cmt-missing] finding per source in [sources] that no unit
    records as its source (a [.ml] needs a [.cmt], a [.mli] a [.cmti]),
    and one [cmt-stale] finding per source whose recorded digest differs
    from the file under [root]. *)

val exports : unit_info -> (string * string list) option
(** [(modname, exported dotted value names)] of an interface unit: the
    type-checked signature's [Sig_value] names, recursing into plain
    submodule signatures.  Module aliases and abstract module types are
    skipped — an under-approximation, which only makes the
    exception-flow pass quieter.  [None] for implementations. *)
