(** The exhaustive rule catalogue: every rule id any analysis family
    can emit, in one place.  Backs [--rules] selection and listing and
    the stale-allowlist scoping; a test pins that every emitted rule name
    is catalogued. *)

type family =
  | Syntactic  (** per-file rules ({!Rules}) *)
  | Deep  (** taint / lockset / lock-order *)
  | Hotpath  (** allocation budgets / blocking *)
  | Escape  (** exception flow / leaks / sim hygiene *)
  | Internal  (** analysis-failure pseudo-rules (exit code 3) *)

type entry = { id : string; family : family; doc : string }

val all : entry list
(** Syntactic registry first (in {!Rules.all} order), then the typed
    families, then the internal pseudo-rules. *)

val find : string -> entry option
val ids_of : family -> string list

val family_to_string : family -> string
