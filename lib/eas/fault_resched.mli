(** Degraded-platform rescheduling: the reliability response built on
    the EAS machinery.

    Given a schedule and a fault set, [run] produces a schedule for the
    degraded platform (every element that ever fails is treated as dead
    for the whole horizon — the conservative static view):

    + tasks stranded on failed PEs migrate to their cheapest alive
      destination (ordered like a GTM move, {!Repair.move_energy});
    + the schedule is rebuilt on the degraded fabric
      ({!Rebuild.run}), keeping the surviving assignment and execution
      order while transactions detour around failed links;
    + remaining deadline misses go through the repair search
      ({!Repair.run}) on the degraded platform, and if misses persist a
      full EAS re-run from scratch is tried, keeping whichever schedule
      scores better (fewest misses, then least total lateness).

    One {!Kernel} built over the degraded view prices the migrations
    and carries that view into both the repair search and the re-run.

    The result targets the degraded platform: check it against its
    recorded routes (the certifier, or {!module:Noc_sched.Validate} in
    its default mode), not in the strict-routes mode. *)

type stats = {
  migrated_tasks : int;  (** Tasks moved off failed PEs in step 1. *)
  rerouted_transactions : int;
      (** Transactions whose route differs from the input schedule. *)
  misses : int;  (** Deadline misses of the returned schedule. *)
  lateness : float;  (** Their total lateness. *)
  used_full_rerun : bool;
      (** True when the from-scratch EAS re-run beat the incremental
          migrate-rebuild-repair pipeline. *)
  repair : Repair.stats option;  (** [None] when repair did not run. *)
}

type outcome = { schedule : Noc_sched.Schedule.t; stats : stats }

val run :
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  faults:Noc_fault.Fault_set.t ->
  Noc_sched.Schedule.t ->
  outcome
(** With an empty (or all-windows-expired… i.e. trivial) fault set the
    input schedule is returned unchanged. Raises [Invalid_argument]
    when the fault set makes the graph unschedulable (every PE failed,
    or some task unreachable on every alive PE). *)

(** {1 Criticality analysis} *)

type criticality = {
  element : Noc_fault.Fault.element;
  induced_misses : int;
      (** Deadline misses when replaying the schedule with this single
          element permanently failed. *)
  induced_losses : int;  (** Tasks lost in the same replay. *)
}

val criticality :
  ?discipline:Noc_sim.Executor.discipline ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  criticality list
(** Scores every PE and every directed link of the platform by the
    damage its permanent failure inflicts on the given schedule, by
    fault-injected replay ({!Noc_sim.Executor.run}). Sorted most
    critical first (misses, then losses, then element order) — a
    ranking of the schedule's reliability weak points. *)

val pp_criticality : Format.formatter -> criticality -> unit
