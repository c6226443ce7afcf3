(** Injectable time source.

    {!Lockfile}, the one library module that needs wall-clock time and
    real sleeps (age stamps and contention polling), takes a {!t} and
    defaults to {!unix}, so tests can drive it against a virtual clock.
    This module is the only sanctioned reader of the ambient clock
    outside designated observational sinks (see lint.allow); everything
    else must thread a {!t}. *)

type t = {
  now : unit -> float;  (** seconds; epoch-based for {!unix} *)
  sleep : float -> unit;  (** block (or simulate blocking) for that long *)
}

val unix : t
(** [Unix.gettimeofday] / [Unix.sleepf]. *)
