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
  ?weighting:Budget.weighting ->
  ?kernel:Kernel.t ->
  ?pinned:int array ->
  ?jobs:int ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  outcome
(** [schedule platform ctg] statically co-schedules the graph's tasks
    and transactions on the platform. [repair] defaults to [true];
    [weighting] (default [Variance_product]) selects the Step 1
    slack-weighting scheme for the corresponding ablation. The
    {!Kernel} (by default built over the fault-free platform under the
    contention-aware model, span ["eas/kernel"]) is threaded through
    all three steps: one built over a fault view schedules for the
    degraded platform (see {!Level_sched.run}), one built with
    [~comm_model:Fixed_delay] runs the Sec. 6 ablation. Raises
    [Invalid_argument] ({!Kernel.check}) unless [platform] and [ctg]
    are the kernel's own. [jobs] is ignored (the run is serial, in the
    calling domain); it stays only for the calls of [perfbench/].

    [pinned] fixes the task-to-PE assignment (see {!Level_sched.run}):
    Step 2 keeps only the timing machinery, and repair is restricted to
    [Lts_only] reordering so the pinned mapping — and therefore the
    Eq.-3 energy — is preserved end to end. *)

val count_misses : Noc_ctg.Ctg.t -> Noc_sched.Schedule.t -> int
(** Number of tasks whose scheduled finish exceeds their deadline.
    Exported only for the calls of [perfbench/]. *)
