(** Baseline: a standard Earliest-Deadline-First list scheduler.

    The comparison scheduler of the paper's Sec. 6. Deadlines are
    propagated backwards through the graph so every task has an effective
    deadline

    {[ ed(i) = min(d(i), min over successors j of (ed(j) - min_k r_j^k)) ]}

    (tasks from which no deadline is reachable sort last). At each step
    the ready task with the earliest effective deadline is scheduled on
    the PE where it finishes earliest — the classic performance-greedy,
    energy-oblivious policy. It places every task through the same step
    as EAS, {!Noc_sched.List_sched.place}, so the comparison isolates
    the optimisation objective, exactly as the paper intends. *)

val effective_deadlines : Noc_ctg.Ctg.t -> float array
(** The propagated deadlines ([infinity] when unconstrained). *)

val schedule :
  ?comm_model:Noc_sched.Comm_sched.model ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t
(** Each task's finish on every PE comes from
    {!Noc_sched.List_sched.probe}; ties go to the lower PE index. *)
