(** The counterexample corpus: shrunk failing cases, pinned as files.

    Every violation the fuzzer finds is shrunk and written as a JSON
    file; the files checked in under [test/corpus/] are replayed by the
    tier-1 suite and by [search_cli fuzz --replay], so a fixed bug stays
    fixed.  An entry records the case plus the violations observed when
    it was captured (for the human reader — replay re-derives its own
    verdict and expects {e zero} violations once the bug is fixed). *)

val save :
  dir:string -> Case.t -> violations:Invariant.violation list -> string
(** Write one corpus entry into [dir] (which must exist) and return its
    path.  The file name is derived from a content digest, so saving is
    idempotent and names are stable across runs. *)

val replay_file : string -> (unit, string) result
(** Load the entry and run the full invariant catalogue on its case;
    [Ok ()] exactly when no invariant is violated.  An entry is either
    the {!save} envelope ([{"case": ..., "violations": ...}]) or a bare
    {!Case.to_json} object, so entries can be written by hand. *)

val files : dir:string -> string list
(** The [*.json] entries of a corpus directory, sorted by name; empty
    when the directory does not exist. *)
