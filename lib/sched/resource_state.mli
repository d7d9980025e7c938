(** Mutable scheduling state: one schedule table per PE and per link.

    The paper evaluates each [F(i,k)] by scheduling tentatively and
    restoring the tables ("the schedule tables of both links and the PEs
    will be restored every time a F(i,k) is calculated");
    {!List_sched.data_ready} does exactly that, a {!mark}, the committing
    walk and a {!rollback}. Every reservation made through this module is
    journalled, so a probe restores the tables and the Step-3 rebuild can
    move between schedules cheaply.

    The journal is a flat undo log: one entry per reservation and table,
    holding the table's id (its index among the state's tables, PE
    tables first, then link tables), the slot index the reservation took
    in it, the interval and a serial number issued once per state. Every
    entry field is an int or a float, so journalling stores no pointer
    (no write barrier) and {!save} copies no table reference. A {!mark} is a
    journal position (its depth and the serial of the entry under it),
    validated in O(1). A {!mark} / {!rollback} pair undoes everything
    reserved in between in O(reservations undone): entries are undone
    newest first, so each table is back in the state its entry was
    written in and the recorded slot is exact
    ({!Noc_util.Timeline.release_slots} checks it; no undo searches). A
    reservation after a rollback overwrites the log above the mark, so
    the entries rolled back are gone; {!save} copies the live journal
    first, and {!redo_to} re-applies a stretch of such a copy in
    O(reservations redone) ({!Noc_util.Timeline.reserve_slots}). Either
    goes to {!Noc_util.Timeline} in one call for its whole stretch. *)

type t

val create : Noc_noc.Platform.t -> t
val platform : t -> Noc_noc.Platform.t

val pe_table : t -> int -> Noc_util.Timeline.t
(** PE [pe]'s table; its id is [pe]. *)

val link_table : t -> Noc_noc.Routing.link -> Noc_util.Timeline.t

val link_id : t -> Noc_noc.Routing.link -> int
(** The id of the link's table, as {!reserve_route_gap} takes it. *)

val reserve_link : t -> Noc_noc.Routing.link -> Noc_util.Interval.t -> unit
(** Journalled link reservation. Raises [Invalid_argument] on overlap;
    an empty interval reserves and journals nothing. *)

val earliest_pe_gap : t -> pe:int -> float array -> unit
(** [earliest_pe_gap t ~pe window] writes into [window.(0)] the earliest
    start at or after [window.(0)] of a gap of [window.(1)] on PE [pe]'s
    table ({!Noc_util.Timeline.earliest_gap_window}); it reserves
    nothing. *)

val reserve_route_gap : t -> Noc_util.Timeline.t array -> int array -> float array -> unit
(** [reserve_route_gap t tables ids window] finds the earliest window of
    [duration = window.(1)] at or after [after = window.(0)] free on
    every table (the paper's merged path schedule table, Fig. 3),
    reserves it on each table in array order with one journal entry per
    table (as {!reserve_link} over the route), and writes the window's
    start into [window.(0)].
    [ids.(k)] is the id of [tables.(k)] ({!link_id}); the caller keeps
    both, so the call builds no array. The window travels in the
    caller's float array, not as float arguments and result, so that
    under [-opaque] (the default dev build) nothing is boxed on the way
    to {!Noc_util.Timeline.reserve_gap_multi}. An empty window reserves
    and journals nothing. *)

val reserve_pe_gap : t -> pe:int -> float array -> unit
(** [reserve_pe_gap t ~pe window] is {!reserve_route_gap} on PE [pe]'s
    table alone: the earliest gap of [window.(1)] at or after
    [window.(0)] on that table ({!earliest_pe_gap}), reserved and
    journalled, its start written into [window.(0)]. *)

type mark

val mark : t -> mark
(** The current journal position. *)

val rollback : t -> mark -> unit
(** [rollback t m] releases every reservation made since [mark t]
    returned [m]. Marks must be rolled back innermost-first. Raises
    [Invalid_argument], leaving the state untouched, when [m] is not a
    position of the live journal (a mark of another state, or one a
    rollback to an older mark already discarded). *)

type saved
(** A copy of a journal. *)

val save : t -> saved
(** [save t] copies the live journal, in O(its length). *)

val save_into : t -> saved -> unit
(** [save_into t s] overwrites [s], a copy of [t]'s journal, with the
    live journal, reusing its arrays when they are long enough; what
    [s] held beyond the live journal's depth is no longer part of it.
    Raises [Invalid_argument] when [s] was saved from another state. *)

(** {1 Tables of marks}

    A caller that records a mark before each of many steps (the Step-3
    incumbent, {!Noc_eas.Rebuild}) keeps them in a table of journal
    positions held in int arrays, so recording one allocates nothing.
    Each position behaves as the {!mark} taken when it was set. *)

type marks

val marks : t -> int -> marks
(** [marks t n] holds [n] positions of [t]'s journal, each at the empty
    journal until set. *)

val set_mark : t -> marks -> int -> unit
(** [set_mark t ms i] records the current journal position at index
    [i], as {!mark} would. Raises [Invalid_argument] when [ms] belongs
    to another state. *)

val rollback_to : t -> marks -> int -> unit
(** [rollback_to t ms i] is {!rollback} to the mark at index [i]. *)

val redo_to : t -> saved -> marks -> int -> unit
(** [redo_to t s ms i] re-applies, oldest first, the entries of [s]
    from the current depth up to the mark at index [i], which must have
    been set while the journal held [s] up to its position. After a
    rollback to an earlier such mark, and any reservations rolled back
    since, it restores the state as it was when that mark was set: one
    state can move back and forth between the marks of a saved journal.
    Raises [Invalid_argument], leaving the state untouched, when the
    live journal is not a prefix of [s] or the mark is not a position of
    [s] at or above the live depth (a mark above the depth [s] was last
    saved at included). *)
