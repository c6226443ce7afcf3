(** Machine-readable certificates: export, parse, re-check.

    A certificate verdict is only as good as one's ability to re-derive
    it.  This module serialises a {!Certificate} run — the covering
    parameters and the verdict, including the gap witness or the
    potential trace summary — to JSON, parses it back, and {e re-checks}
    a parsed certificate against a strategy by re-running the covering
    machinery and comparing outcomes.  The CLI's [certify --json] /
    [recheck] pair round-trips through this format. *)

type kind =
  | Refuted_gap of { at : float; multiplicity : int }
  | Refuted_potential of {
      steps : int;
      max_log_potential : float;
      log_ceiling : float;
    }
  | Not_refuted of { delta : float }
  | Inconclusive of string

type parsed = {
  setting : Assigned.setting;
  k : int;
  demand : int;
  lambda : float;
  n : float;
  kind : kind;
}

val export_string :
  ?pretty:bool -> setting:Assigned.setting -> k:int -> demand:int
  -> lambda:float -> n:float -> Certificate.verdict -> string

val parse_string : string -> (parsed, string) result

val recheck :
  parsed -> turns:Search_strategy.Turning.t array -> (unit, string) result
(** Re-run the certificate for the recorded parameters against [turns]
    and confirm the recorded verdict: same kind, gap witness within
    relative [1e-6], potential summary within absolute [1e-6].  [Error]
    explains the first discrepancy.  Also validates that [turns] has the
    recorded [k]. *)

(** {1 Assignment proof objects}

    A complete assigned-interval system is a {e standalone} proof object:
    its validity (exact coverage starting from 1, the setting's load
    constraints) and the consequences the proofs draw from it (per-step
    potential growth at least Lemma 5's [delta], the ceiling) can all be
    re-derived from the raw intervals, with no strategy or trust in the
    producer required. *)

type assignment_doc = {
  a_setting : Assigned.setting;
  a_k : int;
  a_demand : int;
  a_mu : float;
  intervals : Assigned.interval list;
}

val export_assignment : assignment_doc -> Search_numerics.Json.t
val parse_assignment : Search_numerics.Json.t -> (assignment_doc, string) result

val check_assignment : assignment_doc -> (unit, string) result
(** Independent verification, interval by interval:
    - every interval starts at the current demand-fold frontier
      (exactness; relative tolerance 1e-6) and ends strictly beyond it;
    - the owner obeys the setting's constraint ((14) for ORC, (5) for the
      line) at that moment;
    - every defined potential step ratio is at least
      [Potential.delta - 1e-6], and the potential never exceeds its
      ceiling — the numerical confirmation of Lemma 5 and eq. (8) on this
      object. *)
