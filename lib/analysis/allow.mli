(** The checked-in suppression list ([lint.allow] at the lint root).

    Suppressions are per-(rule, file) so that every deliberate
    exception to a rule is one reviewable line in one diffable file —
    no inline magic comments scattered through the tree.  Format, one
    entry per line:

    {v
    # comment (or trailing comment after an entry)
    <rule-id> <path/relative/to/root.ml>   # why this is deliberate
    v}

    A rule id of [*] suppresses every rule for that file. *)

type t

val empty : t

val parse : string -> (t, string) result
(** Parse file contents.  Errors name the offending line. *)

val load : string -> (t, string) result
(** [load path] reads and parses [path]; a missing file is an empty
    allowlist (so fresh checkouts lint strictly). *)

val parse_lines :
  (lineno:int -> string -> string list -> ('a, string) result) ->
  string ->
  ('a list, string) result
(** The line discipline [lint.allow] and [lint.budget] share: drop
    ['#'] comments and blank lines, and hand every remaining line's
    number, raw text and whitespace-separated words to the entry
    parser.  The first error wins. *)

val load_with :
  (string -> ('a, string) result) -> empty:'a -> string -> ('a, string) result
(** [load_with parse ~empty path]: [Ok empty] when [path] does not
    exist, [Error "<path>: <reason>"] when it cannot be read (a
    directory, no permission), else [parse] of its contents. *)

val permits : t -> rule:string -> file:string -> bool
(** Is [(rule, file)] suppressed? *)

val entries : t -> (string * string) list
(** All (rule, file) pairs, in file order — for diagnostics. *)

val entries_located : t -> (string * string * int) list
(** Like {!entries} with each entry's [lint.allow] line number — the
    stale-entry report points back at the line to delete. *)

val stale :
  t ->
  in_scope:(string -> bool) ->
  findings:Finding.t list ->
  (string * string * int) list
(** Entries whose rule satisfies [in_scope] yet matched no finding in
    [findings] (pre-suppression): [(rule, path, line)].  The single
    staleness definition shared by every entry family. *)
