(** EAS Step 2: level-based scheduling over the flat-array kernel.

    Repeatedly forms the Ready Tasks List (tasks whose predecessors are
    all scheduled), computes for every ready task [t_i] and every PE
    [p_k] the earliest finish time [F(i,k)] by tentatively scheduling
    [t_i]'s receiving transactions (Fig. 3) and probing PE [k]'s schedule
    table, then commits one task per iteration:

    - if some ready task cannot meet its budgeted deadline on any PE
      ([min_F(i) > BD_i]), the most violating one is scheduled on its
      fastest-finishing PE (damage control);
    - otherwise each task's candidate list [L_i = {k | F(i,k) <= BD_i}]
      is ranked by energy (computation on [k] plus communication of the
      already-placed incoming arcs, per the paper's footnote), and the
      task with the largest regret [delta_i = E2_i - E1_i] is scheduled
      on its cheapest deadline-respecting PE. A task whose list has a
      single PE has infinite regret and is scheduled first.

    Like [Level_sched_reference] — the original implementation, kept in
    test/ as the differential oracle — a probe reserves and rolls back:
    the data-ready time comes from {!Noc_sched.List_sched.data_ready},
    the Fig. 3 walk a commit runs, restored after it; unlike the
    reference, the PE gap and all prices come from the {!Kernel}
    matrices. Both stages are memoized and revalidated against the
    {!Noc_util.Timeline.version}s of the tables they read
    ({!Noc_sched.List_sched.data_ready_stamp} and PE [k]'s table), so
    each commit only re-probes the (i,k) pairs it actually invalidated.
    A commit places the chosen task through
    {!Noc_sched.List_sched.place}, the step every other scheduler places
    with. Both paths produce bit-identical schedules and decision logs;
    [test_kernel_diff] enforces this.

    The memo, the prices, each task's energy order and the ready list
    live in flat arrays, and the rules are loops over them: per
    candidate and per iteration, Step 2 builds no list, closure or
    option. Under the dev profile's [-opaque] every float crossing a
    module boundary is boxed, so prices read the kernel's arrays, not
    its accessors; the floats still boxed are those of a probe's two
    calls ({!Noc_sched.List_sched.data_ready} and the PE gap query).
    [test_level_sched] holds a run's allocation to a budget per placed
    task. The counters it feeds
    ([eas.finish_time.evaluations], [eas.finish_time.reused],
    [eas.assignment_energy.evaluations]) are added once per run. *)

val run :
  kernel:Kernel.t ->
  ?pinned:int array ->
  ?jobs:int ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Budget.t ->
  Noc_sched.Schedule.t
(** Builds a complete schedule (always succeeds; deadlines may be
    missed, which Step 3 then repairs), timing transactions under the
    kernel's communication model. Raises [Invalid_argument]
    ({!Kernel.check}) unless the platform and the graph are the
    kernel's own (they stay for the calls of [perfbench/]). On a
    kernel with a fault view ({!Kernel.degraded}), failed PEs receive
    no tasks and transactions detour around failed links. Raises
    [Invalid_argument] when the fault view makes the graph
    unschedulable (every PE failed, or a task unreachable from its
    predecessors on every alive PE).

    [pinned] restricts each task [i]'s candidate set to the single PE
    [pinned.(i)] — the mapping-search front-end ([lib/map])
    fixes the assignment and keeps only the timing machinery (levels,
    communication scheduling, earliest gaps). Selection rules degenerate
    gracefully: every candidate list is a singleton, so Rule 4 regrets
    are all infinite and the ready list drains in order, while Rule 3
    still front-runs certain violators. Raises [Invalid_argument] on a
    length mismatch, an out-of-range PE or a pinned-but-failed PE.

    [jobs] is ignored (the run is serial, in the calling domain); it
    stays only for the calls of [perfbench/]. *)
