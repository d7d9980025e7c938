(** ASCII Gantt charts for schedules.

    Renders one row per PE with task occupancy, then one row per
    network link carrying traffic, scaled to a fixed character width. Intended for examples and CLI output, not for parsing. *)

val render :
  ?width:int ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Schedule.t ->
  string
(** [render platform ctg schedule] draws the schedule, with a row for
    every link that carries at least one transaction. [width] is the
    number of characters of the time axis (default 72). *)
