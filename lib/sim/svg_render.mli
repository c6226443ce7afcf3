(** SVG space–time diagrams of line strategies.

    The classic picture of a line-search strategy is its space–time
    diagram: signed position on the horizontal axis, time flowing
    downward.  Zigzags are polylines, the target is a vertical line,
    visits are dots, detection is a circle.  This renders such diagrams
    as standalone SVG — the repository's figures are generated, not
    drawn.  Line worlds only (two rays); the m-ray generalisation has no
    canonical planar embedding. *)

type style = {
  width : int;  (** pixel width, default 640 *)
  height : int;  (** pixel height, default 480 *)
  margin : int;  (** default 32 *)
}

val space_time :
  ?style:style -> ?target:World.point -> ?fault:Fault.assignment
  -> ?time_max:float -> Trajectory.t array -> string
(** The diagram for up to 8 robots on the line.  [time_max] defaults to
    a window showing the first ~8 legs of the slowest robot.  When
    [target] is given, its vertical line, every robot's visits, and —
    when [fault] is given — the detection moment (first honest visit)
    are marked.  @raise Invalid_argument for non-line worlds or empty
    arrays. *)

val write : path:string -> string -> unit
(** Write an SVG document to a file (creates the parent directory's leaf
    level as {!Search_numerics.Csv_out.write} does). *)
