(** Frozen list-based executor: the executable specification of
    {!Noc_sim.Executor}. Same signature; the differential tests require
    both to return the same outcome and to count the same [sim.*]
    events. *)

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
      (** Tasks with a deadline that finished late or were lost. *)
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
