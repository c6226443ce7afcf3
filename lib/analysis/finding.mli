(** One structured lint finding.

    Findings are the linter's only currency: rules produce them, the
    allowlist filters them, the renderers ({!Driver.render_text},
    {!Driver.render_json}) print them.  A finding is a plain record so
    that its JSON carries every field and the sort order is total —
    both are load-bearing for the determinism contract (`--jobs 1` and
    `--jobs 4` must emit byte-identical reports). *)

type severity = Error | Warning

type t = {
  rule : string;  (** rule id, e.g. ["poly-compare"] *)
  severity : severity;
  file : string;  (** path relative to the lint root, ['/']-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler locations *)
  message : string;
  suggestion : string option;  (** how to fix, when the rule knows *)
}

val v :
  rule:string ->
  severity:severity ->
  file:string ->
  ?suggestion:string ->
  loc:Location.t ->
  string ->
  t
(** Build a finding at the start of [loc]. *)

val compare : t -> t -> int
(** Total order: file, line, col, rule, message.  Independent of
    discovery or scheduling order. *)

val severity_to_string : severity -> string

val to_json : t -> Search_numerics.Json.t

val github_escape : string -> string
(** The GitHub Actions workflow-command data encoding ([%] → [%25],
    [CR] → [%0D], [LF] → [%0A]) — the one escaper every [--format
    github] renderer goes through. *)
