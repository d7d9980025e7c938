(** Discrete-event execution of a schedule on the wormhole NoC.

    The executor takes from a schedule only the decisions a runtime
    actually dispatches: the task-to-PE assignment and the per-PE issue
    order. Timing then emerges from the hardware model — each PE issues
    its tasks strictly in order, a task starting once all its input data
    has arrived; a transaction becomes eligible when its sender finishes
    and is granted its whole XY route first-come-first-served (ties by
    edge id) as soon as every link of the route is simultaneously free,
    holding all of them for [volume / bandwidth].

    For a schedule built by a contention-aware scheduler the realised
    times can only improve on the table (reservations are conservative).
    For a schedule built under the naive fixed-delay communication model
    the realised times expose the congestion the scheduler ignored —
    the paper's argument for co-scheduling communication. *)

type discipline =
  | Time_triggered
      (** The runtime of a statically scheduled NoC: tasks and
          transactions are released at their tabled start times (never
          earlier) and wait further if their resources are still busy —
          which cannot happen for a conflict-free schedule, so replaying
          one reproduces it exactly. Replaying a schedule whose table
          {e does} conflict (the fixed-delay ablation) exposes the
          cascading delays the scheduler ignored. *)
  | Self_timed
      (** Work-conserving execution: everything is released as soon as
          its data is ready, ignoring the tabled times. Subject to the
          usual multiprocessor timing anomalies. *)

type outcome = {
  realised : Noc_sched.Schedule.t;
      (** Executed placements/transactions. Tasks and transactions that
          never ran (lost to faults) carry [infinity] timestamps. *)
  waiting_time : float;
      (** Total time transactions spent eligible but blocked on busy
          links — a direct measure of the contention the schedule
          experienced. *)
  edge_waiting : float array;
      (** Per-edge blocked time (indexed by edge id); its sum is
          [waiting_time]. While a transaction is blocked, its payload
          sits in router buffers — the input of
          {!Buffer_energy.estimate}. *)
  lost_tasks : int list;
      (** Tasks that never finished: queued on a PE whose fault never
          cleared, killed mid-execution by a fault onset, or starved of
          an input whose transaction could not traverse a failed link.
          Empty when the fault set is empty. *)
  deadline_misses : int list;
      (** Tasks with a deadline that were lost or finished late by
          {!Noc_sched.List_sched.lateness}, the rule the schedulers
          count misses with. *)
}

val run :
  ?discipline:discipline ->
  ?faults:Noc_fault.Fault_set.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  outcome
(** Executes the schedule's assignment and per-PE issue order under the
    given dispatch [discipline] (default [Time_triggered]).

    Transactions are routed over the schedule's {e recorded} routes (not
    recomputed deterministic ones), so detour-routed schedules replay as
    written.

    With a non-empty [faults] set (default empty) the hardware degrades:
    a transaction cannot enter a route while any of its links is failed
    (it stalls; in-flight transfers are not torn down — faults gate
    entry); a failed PE issues no tasks, and a fault onset kills the
    task it was executing. Work whose fault never clears is reported in
    [lost_tasks], and every late or lost deadline task in
    [deadline_misses]. *)
