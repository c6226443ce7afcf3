(** The allocation budget file ([lint.budget]) for [@hot] roots.

    Format: one ['<display-name> <count>'] line per audited root
    (['#'] comments allowed).  The count is the number of statically
    reachable allocation sites {!Hotpath} tolerates for that root;
    roots without an entry default to 0 — zero-allocation is the
    contract, nonzero budgets are the audited exception. *)

type entry = { bname : string; bcount : int; bline : int }
type t

val empty : t

val parse : string -> (t, string) result
(** Parse file contents; the error carries [lint.budget:<line>]. *)

val load : string -> (t, string) result
(** [Ok empty] when the file does not exist; see {!Allow.load_with}. *)

val find : t -> string -> int option
(** Budget for a root, by display name. *)

val entries_located : t -> (string * int * int) list
(** [(name, count, line)] for every entry, in file order. *)

val stale : t -> roots:string list -> (string * int) list
(** Entries naming no current [@hot] root: [(name, line)]. *)
