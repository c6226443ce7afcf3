(* The one sanctioned home for the ambient wall clock (see lint.allow):
   its consumer takes a clock as a parameter and defaults to [unix], so
   a test can substitute a virtual clock. *)

type t = { now : unit -> float; sleep : float -> unit }

let unix = { now = Unix.gettimeofday; sleep = Unix.sleepf }
