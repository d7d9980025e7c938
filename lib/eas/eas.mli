(** The Energy-Aware Scheduler (the paper's main contribution).

    [schedule] runs the three steps of Sec. 5 end to end: budget slack
    allocation ({!Budget}), level-based scheduling ({!Level_sched}) and,
    when the resulting schedule misses deadlines and [repair] is on,
    search and repair ({!Repair}). The two experimental configurations of
    Sec. 6 are [EAS-base] ([~repair:false]) and [EAS] (the default). *)

type stats = {
  runtime_seconds : float;
      (** Scheduling wall time ({!Noc_util.Clock.wall_s}), not CPU time. *)
  misses_before_repair : int;
  misses_after_repair : int;
  repair : Repair.stats option;  (** [None] when repair did not run. *)
}

type outcome = { schedule : Noc_sched.Schedule.t; stats : stats }

val schedule :
  ?repair:bool ->
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?weighting:Budget.weighting ->
  ?kernel:Kernel.t ->
  ?pinned:int array ->
  ?jobs:int ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  outcome
(** [schedule platform ctg] statically co-schedules the graph's tasks
    and transactions on the platform. [repair] defaults to [true];
    [comm_model] defaults to [Contention_aware] (use [Fixed_delay] only
    for the ablation study — the resulting transactions ignore link
    contention); [weighting] (default [Variance_product]) selects the
    Step 1 slack-weighting scheme for the corresponding ablation. The
    flat-array {!Kernel} is built once over the fault-free platform
    (span ["eas/kernel"]) and threaded through all three steps; pass
    [kernel] to reuse a prebuilt one across runs. A kernel built over a
    fault view ([Kernel.build ~degraded]) schedules the whole pipeline
    for the degraded platform: failed PEs receive nothing and routes
    detour around failed links (see {!Level_sched.run} for the failure
    cases).
    [jobs] is accepted and ignored: the run is serial, in the calling
    domain.

    [pinned] fixes the task-to-PE assignment (see {!Level_sched.run}):
    Step 2 keeps only the timing machinery, and repair is restricted to
    [Lts_only] reordering so the pinned mapping — and therefore the
    Eq.-3 energy — is preserved end to end. *)

val count_misses : Noc_ctg.Ctg.t -> Noc_sched.Schedule.t -> int
(** Number of tasks whose scheduled finish exceeds their deadline. *)

val name : repair:bool -> string
(** ["EAS"] or ["EAS-base"], as the paper labels the configurations. *)
