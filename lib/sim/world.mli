(** The search space: [m] rays emanating from a common origin.

    The real line of Sections 1–2 is the special case [m = 2], with ray 0
    as the positive half-axis and ray 1 as the negative one.  A robot moves
    at unit speed; moving between distinct rays passes through the origin,
    so the travel distance between [(i, d)] and [(j, d')] is [|d - d'|]
    when [i = j] and [d + d'] otherwise — the metric of a star graph, which
    is exactly the cost model of the hybrid-algorithm and contract-algorithm
    interpretations in Section 3. *)

type t
(** A world with a fixed number of rays. *)

val rays : int -> t
(** [rays m] — requires [m >= 1] ([m = 1] is the degenerate single ray of
    the ORC relaxation). *)

val line : t
(** [rays 2]. *)

val arity : t -> int

type point = { ray : int; dist : float }
(** A location: ray index in [[0, arity-1]] and distance [>= 0] from the
    origin.  The origin is [(r, 0.)] for every [r]; all such points are
    identified by {!equal_point}. *)

val point : t -> ray:int -> dist:float -> point
(** Validated constructor.
    @raise Invalid_argument on a bad ray index or negative distance. *)

val origin : point
(** The origin, canonically on ray 0. *)

val is_origin : point -> bool
val equal_point : point -> point -> bool
(** Structural equality, except all origin representations coincide. *)

val travel_distance : point -> point -> float
(** Star-metric distance (= travel time at unit speed). *)

val line_coordinate : point -> float
(** Signed coordinate for line worlds: [+dist] on ray 0, [-dist] on ray 1.
    @raise Invalid_argument for a ray index [> 1]. *)

val pp_point : Format.formatter -> point -> unit
