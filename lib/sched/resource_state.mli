(** Mutable scheduling state: one schedule table per PE and per link.

    The paper evaluates each [F(i,k)] by scheduling tentatively and
    restoring the tables ("the schedule tables of both links and the PEs
    will be restored every time a F(i,k) is calculated");
    {!List_sched}'s read-only walk gets the same answer without writing
    them. Every reservation made through this module is journalled, so
    the Step-3 rebuild can move between schedules cheaply: a {!mark} /
    {!rollback} pair undoes everything reserved in between in
    O(reservations undone), and {!redo} re-applies a rolled-back stretch
    of the journal in O(reservations redone). *)

type t

val create : Noc_noc.Platform.t -> t
val platform : t -> Noc_noc.Platform.t

val pe_table : t -> int -> Noc_util.Timeline.t
val link_table : t -> Noc_noc.Routing.link -> Noc_util.Timeline.t

val reserve_pe : t -> pe:int -> Noc_util.Interval.t -> unit
(** Journalled PE reservation. Raises [Invalid_argument] on overlap. *)

val reserve_link : t -> Noc_noc.Routing.link -> Noc_util.Interval.t -> unit

val earliest_pe_gap : t -> pe:int -> after:float -> duration:float -> float
val earliest_route_gap :
  t -> route:Noc_noc.Routing.link list -> after:float -> duration:float -> float
(** Earliest slot simultaneously free on every link of the route: the
    paper's merged path schedule table (Fig. 3). With an empty route the
    answer is [after]. *)

val reserve_route_gap :
  t -> Noc_util.Timeline.t array -> after:float -> duration:float -> Noc_util.Interval.t
(** [reserve_route_gap t tables ~after ~duration] finds the earliest
    window of [duration] at or after [after] free on every table (as
    {!earliest_route_gap}), reserves it on each table in array order
    with one journal entry per table (as {!reserve_link} over the
    route), and returns the window. *)

type mark

val mark : t -> mark
val rollback : t -> mark -> unit
(** [rollback t m] releases every reservation made since [mark t]
    returned [m]. Marks must be rolled back innermost-first. Raises
    [Invalid_argument], leaving the state untouched, when [m] is not a
    prefix of the current journal (a mark of another state, or one a
    rollback to an older mark already discarded). *)

val redo : t -> mark -> unit
(** [redo t m] re-applies, oldest first, every reservation [m] holds
    beyond the current journal, and makes [m] the current journal: after
    a rollback to a mark taken before [m], [redo t m] restores the state
    as it was when [m] was taken. Marks are immutable journal positions,
    so one state can move back and forth between the marks of a single
    journal. Raises [Invalid_argument], leaving the state untouched,
    when [m] is not an extension of the current journal. *)
