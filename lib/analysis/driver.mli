(** The lint driver: discover, load, check, filter, render.

    Determinism contract (same as the rest of the repo): the outcome —
    including the rendered bytes — is a pure function of the source
    tree, the rule selection and the allowlist.  File discovery is
    sorted, findings are totally ordered ({!Finding.compare}), and the
    parallel map preserves input order, so [--jobs 1] and [--jobs 8]
    emit identical reports. *)

type outcome = {
  findings : Finding.t list;  (** surviving findings, sorted *)
  suppressed : int;  (** findings removed by the allowlist *)
  files : int;  (** source files discovered *)
  units : int;  (** compiled implementation units analysed *)
  stale : (string * string * int) list;
      (** allow entries (rule, path, lint.allow line) for a selected
          rule that matched no finding *)
  budget_stale : (string * int) list;
      (** [lint.budget] entries (name, line) naming no current [@hot]
          root (empty unless [hotpath-alloc] is selected) *)
}

val load_allow : root:string -> (Allow.t, string) result
(** Read [root/lint.allow] (missing file = empty allowlist). *)

val load_budget : root:string -> (Budget.t, string) result
(** Read [root/lint.budget] (missing file = every [@hot] root budgets
    at zero). *)

val run :
  ?jobs:int ->
  ?rules:string list ->
  ?dirs:string list ->
  ?allow:Allow.t ->
  ?budget:Budget.t ->
  root:string ->
  unit ->
  outcome
(** Lint every [.ml]/[.mli] under [root/dir] for [dir] in [dirs]
    (default [bench], [bin], [lib], [test]) through the typed artefacts
    dune emitted for them ({!Cmt_loader.build_dir}): the per-file
    {!Rules}, the interprocedural family ({!Taint} + {!Lockset}), the
    hot-path family ({!Hotpath}, checked against [budget]), the escape
    family ({!Escape}, with [.cmti] export sets deciding what is public)
    and the export-use pass ({!Callers}).  The units under [examples/]
    and [perfbench/] join the call graph as reference-only roots: their
    references count as callers of [lib/] exports, but they are not
    linted and no finding is reported in them.  A
    source with no artefact, or one compiled from other bytes, is a
    [cmt-missing] / [cmt-stale] finding.  [rules] restricts the report
    and the stale-entry scope to the given catalogue ids
    ({!Catalogue.all}; unknown ids raise [Invalid_argument]); the
    internal pseudo-rules are always reported.  [jobs] sizes the
    {!Search_exec.Pool} used to fan units out across domains. *)

val exit_code : ?strict:bool -> outcome -> int
(** The lint exit-code contract (same scheme as the CLI at large):
    0 clean / 1 verified finding / 3 internal — a [cmt-load],
    [cmt-missing] or [cmt-stale] finding means the tree itself could
    not be analysed.  With [strict], stale allowlist and budget entries
    also exit 1.  (2 — usage — is the argument parser's, not the
    driver's.) *)

val render_text : outcome -> string
(** Table of findings (via {!Search_numerics.Table}) plus a summary
    line. *)

val render_json : outcome -> string
(** [{"files": .., "units": .., "suppressed": .., "findings": [..],
    "stale": [..]}], pretty, trailing newline; each finding is
    {!Finding.to_json}. *)

val render_github : outcome -> string
(** GitHub Actions workflow commands: one
    [::error file=..,line=..,col=..::[rule] message] annotation per
    finding (stale entries as [::warning] on [lint.allow]), then the
    summary line. *)
