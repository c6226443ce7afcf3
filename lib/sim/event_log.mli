(** Human-readable traces of a search run, for the examples.

    Produces a chronological narration of a crash-fault scenario: robot
    turns, target visits (flagging faulty visitors staying silent), and the
    detection moment. *)

type entry = {
  time : float;
  text : string;
}

val narrate_crash :
  ?min_turn_depth:float -> Trajectory.t array -> assignment:Fault.assignment
  -> target:World.point -> horizon:float -> entry list
(** Events up to (and including) detection — or up to the horizon when the
    target is never detected.  Turn events of legs after detection are
    omitted, as are turns at depth below [min_turn_depth] (default 0: show
    all) — exponential strategies begin with microscopic warm-up turns
    that only clutter a narration. *)

val print : entry list -> unit
