(** Deterministic schedule reconstruction from an assignment and a
    priority ranking.

    The search-and-repair moves of EAS Step 3 operate on a compact
    representation of a schedule: the task-to-PE assignment plus a total
    priority order. [run] re-derives the full timed schedule by list
    scheduling: at each step, among the ready tasks, the one with the
    smallest rank is placed next — its receiving transactions through the
    communication scheduler, its execution in the earliest gap of its
    (fixed) PE. Swapping two ranks therefore swaps the execution order of
    the corresponding tasks wherever dependencies allow it, and changing
    an assignment entry migrates a task; both exactly as Step 3 needs. *)

val run :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  assignment:int array ->
  rank:int array ->
  Noc_sched.Schedule.t
(** [assignment.(i)] is the PE of task [i]; [rank.(i)] its priority
    (lower runs earlier among simultaneously-ready tasks). Raises
    [Invalid_argument] on out-of-range PEs or mismatched lengths. With
    [degraded], transactions detour around failed links (and raise
    [Invalid_argument] if the fault set disconnects a needed pair); the
    caller is responsible for assigning tasks only to alive PEs. *)

val of_schedule :
  Noc_sched.Schedule.t -> int array * int array
(** Extracts [(assignment, rank)] from a schedule, ranking tasks by
    start time (ties by task id). Rebuilding from the result reproduces
    an equivalent execution order. *)

(** {1 Checkpointed incumbent}

    The repair search ({!Repair}) prices thousands of moves against one
    incumbent [(assignment, rank)]. A move cannot change the steps of
    {!run}'s list scheduler before the first one it touches, so an
    incumbent records, per step, the task placed, a
    {!Noc_sched.Resource_state.mark} taken before it and the misses so
    far; a candidate then re-places only the suffix from its restart
    step, through the same step function as {!run}, and stops as soon as
    it can no longer beat the caller's best score. One shared resource state
    serves every candidate: it is rolled back, or re-applied from a copy
    of the incumbent's journal ({!Noc_sched.Resource_state.save}, taken
    once per recording), to the restart step, never rebuilt. *)

type incumbent

type outcome =
  | Completed  (** Every task placed; {!finish} and {!candidate} read it. *)
  | Abandoned  (** The bound ruled the candidate out before it finished. *)
  | Failed  (** A step raised [Invalid_argument], as {!run} would. *)

val checkpoint :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  assignment:int array ->
  rank:int array ->
  incumbent
(** Runs the list scheduler once on [(assignment, rank)] and records its
    checkpoints, with the misses and lateness so far before each step.
    A placement's lateness is {!Noc_sched.List_sched.lateness}'s, read
    from a deadline array the incumbent keeps ([infinity] for a task
    without one) rather than through a closure, whose float result
    would be boxed. An incumbent on which {!run}
    would raise is recorded up to the step that raises; every candidate
    that does not restart at or before that step fails. *)

val rebase : incumbent -> assignment:int array -> rank:int array -> unit
(** Re-records the incumbent for a new [(assignment, rank)], reusing
    its resource state and arrays. *)

val migration_restart : incumbent -> int -> int
(** The first step a change of task [t]'s PE can alter: [t]'s own step
    (the pop order does not depend on the assignment). *)

val swap_restart : incumbent -> rank:int array -> int -> int -> int
(** [swap_restart inc ~rank a b], with [rank] already holding the
    swapped ranks of [a] and [b]: the first step whose pick can change,
    the earlier of each task's own step and the first step of its ready
    window whose incumbent pick it now precedes. *)

val evaluate :
  incumbent ->
  assignment:int array ->
  rank:int array ->
  from:int ->
  best:int * float ->
  outcome * int
(** List-schedules the candidate [(assignment, rank)] from step [from]
    (which must be at or before the restart step of every change from
    the incumbent), after restoring the incumbent's first [from] steps.
    [best = (m1, l1)] is the score to beat (misses, then lateness). The
    bound [b = l1 - 1e-6 + 1e-9 * (1 + |l1|)] is computed once; after
    each placement, with [m] the running miss count and [l] the
    lateness summed in placement order, the candidate is abandoned
    unless [m < m1 || (m = m1 && l < b)]. Placed tasks never move, so
    [(m, l)] only grows and an abandoned candidate could not have
    improved; the relative margin covers the rounding gap between
    placement-order and task-id-order sums. [(max_int, infinity)]
    abandons nothing. Returns the outcome and the number of tasks placed.
    The candidate stays in place until the next [evaluate] or
    {!rebase}. *)

val finish : incumbent -> int -> float
(** Finish time of a task in the last evaluated candidate. *)

val candidate : incumbent -> Noc_sched.Schedule.t
(** The last candidate as a schedule, bit-identical to {!run} on the
    candidate's [(assignment, rank)]; meaningful after [Completed]. *)
