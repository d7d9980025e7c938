(** Schedule tables: ordered sets of busy intervals on a shared resource.

    A timeline records the busy slots of one resource (a processing element
    or a directed network link). It supports the two operations the paper's
    scheduler needs: finding the earliest gap of a given duration at or
    after a release time, and reserving a slot.

    Internally the busy set is a sorted dynamic array indexed by binary
    search. Every search first checks the last slot, so a query at or
    after the end of the table (the scheduler's dominant pattern) costs
    O(1), and a reservation there shifts nothing (O(1) amortized);
    otherwise [is_free] is O(log n), [earliest_gap] is O(log n + slots
    walked past) and a mid-table insert is O(n) worst case. The
    journal forms {!reserve_slots} and {!release_slots} redo or undo a
    whole stretch of a journal in one call, taking each entry's slot
    index from the journal and only checking it, in O(1) plus the shift
    of the slots after it (none at the end of the table):
    [Noc_sched.Resource_state]'s journal records each reservation's
    index, which is exact again whenever the journal is undone or redone
    in order, so no undo searches.

    The forms the scheduler's committing walk calls ({!reserve_gap_multi},
    {!reserve_slots}, {!release_slots}) read and write their windows in
    float arrays the caller owns. The default (dev) build compiles with
    [-opaque], so a float passed to or returned from a function of
    another module is boxed; a float array cell crosses unboxed, and
    the walk allocates nothing per reservation. Behavioural equivalence
    with a naive sorted-list model (the test-only [Timeline_reference])
    is enforced by qcheck differential tests over random operation
    traces. *)

type t

val create : unit -> t
(** An empty timeline. *)

val busy : t -> Interval.t list
(** Busy intervals in increasing order of start time. *)

val is_free : t -> Interval.t -> bool
(** [is_free t iv] is true when [iv] overlaps no busy interval. *)

val earliest_gap : t -> after:float -> duration:float -> float
(** [earliest_gap t ~after ~duration] returns the smallest [s >= after]
    such that [s, s + duration) is free. Always succeeds (time is
    unbounded to the right). [duration] must be non-negative. *)

val earliest_gap_window : t -> float array -> unit
(** [earliest_gap_window t window] is {!earliest_gap} with [after =
    window.(0)] and [duration = window.(1)], its result written into
    [window.(0)]: the window form, whose floats cross no module boundary
    boxed (see {!reserve_gap_multi}). *)

val reserve : t -> Interval.t -> unit
(** [reserve t iv] marks [iv] busy. Raises [Invalid_argument] if [iv]
    overlaps an existing busy interval. Empty intervals are ignored. *)

val slot : t -> float -> int
(** [slot t start] is the index a reservation starting at [start] takes:
    the first slot that ends after [start], or the number of slots. *)

val reserve_slots :
  t array ->
  ids:int array ->
  slots:int array ->
  starts:float array ->
  stops:float array ->
  int ->
  int ->
  int
(** [reserve_slots tls ~ids ~slots ~starts ~stops lo hi] reserves, for
    [d] from [lo] up to [hi - 1], the non-empty [[starts.(d),
    stops.(d))] on [tls.(ids.(d))] at slot index [slots.(d)], which
    must be the index a reservation starting there takes ({!slot}):
    a journal's redo. It stops at the first entry that is empty, not at
    that index or overlapping a busy interval, leaving it and the
    entries after it unreserved, and returns its index ([hi] when every
    entry was reserved). The intervals are read from the caller's
    arrays (a journal's) so that no float is boxed on the way in. *)

val release_slots :
  t array ->
  ids:int array ->
  slots:int array ->
  starts:float array ->
  stops:float array ->
  int ->
  int ->
  int
(** [release_slots tls ~ids ~slots ~starts ~stops lo hi] removes, for
    [d] from [hi - 1] down to [lo], slot [slots.(d)] of
    [tls.(ids.(d))], which must hold exactly [[starts.(d), stops.(d))]:
    a journal's rollback. It stops at the first entry whose slot does
    not, leaving it and the entries before it in place, and returns one
    past its index ([lo] when every entry was released), so the caller
    can report which entry no longer holds its slot. *)

val utilisation : t -> horizon:float -> float
(** Fraction of [0, horizon) covered by busy intervals (clipped to the
    horizon). Requires [horizon > 0]. *)

val span : t -> float
(** Largest busy [stop] value, or [0.] when empty. *)

val version : t -> int
(** The number of busy intervals. Between two reads during which the
    table only gains intervals, apart from reservations released again
    newest-first (a rollback), an unchanged version brackets an
    unchanged busy set, so callers can memoize query results against a
    timeline and revalidate with one integer comparison: the EAS
    flat-array kernel keys its F(i,k) cache on the versions of the
    tables each probe consulted, and a probe's reserve-and-restore puts
    every version it moved back. A table that can lose an interval it
    did not just gain can come back to an old version with another
    busy set. *)

val merged_busy : t list -> after:float -> Interval.t list
(** [merged_busy tls ~after] coalesces the busy intervals of all timelines
    whose [stop] exceeds [after] into a sorted, non-overlapping list. This
    is the paper's "path schedule table" obtained by merging the occupied
    slots of a route's links (Fig. 3). *)

val reserve_gap_multi : t array -> int array -> float array -> unit
(** [reserve_gap_multi tls slots window] reserves the earliest window
    free on every timeline: with [after = window.(0)] and [duration =
    window.(1)], it reserves [[s, s + duration)], with [s] the earliest
    start at or after [after] free on every timeline ([after] for no
    timeline or a zero duration; the order of the array does not
    matter), on every timeline in array order as by {!reserve}, overlap
    check included, and writes [s] into [window.(0)]. The search probes
    the tables round-robin, moving its candidate to the stop of any slot
    it overlaps, and stops once [n] probes in a row (one per table)
    leave the candidate in place. It already locates each table's
    insertion point, so no table is searched twice, and after a table's
    first probe (a binary search) each later one gallops from its last
    index instead of searching from the start; [slots.(k)] receives the slot index the
    window took in [tls.(k)] ([slots] must be at least as long as
    [tls]). An empty window (zero duration, or one lost to rounding)
    reserves nothing and leaves [slots] meaningless. The timelines must
    be distinct (a route's links): a repeated one fails the overlap
    check after the earlier ones were reserved. *)
