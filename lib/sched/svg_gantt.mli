(** SVG rendering of schedules.

    Produces a standalone SVG document with one horizontal lane per PE
    (task rectangles labelled with the task name) and, below, one lane
    per network link carrying traffic (transaction rectangles). Deadline
    misses are outlined in red; a time axis with ticks runs along the
    top. No external dependencies — the output is plain SVG 1.1. *)

val save :
  path:string -> Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> Schedule.t -> unit
(** [save ~path platform ctg schedule] writes the SVG document to
    [path]: 960 pixels wide, 28 pixels per lane, link lanes included. *)
