(** Dynamic-level scheduling (Sih and Lee), the paper's reference [10].

    The classic compile-time heuristic for interconnection-constrained
    heterogeneous architectures, adapted to the NoC substrate: at every
    step, for every (ready task, PE) pair, the {e dynamic level}

    {[ DL(i, k) = SL(i) - max(DRT(i, k), avail(k)) + delta(i, k) ]}

    combines the task's static level [SL] (longest mean-execution path
    from the task to any sink), its earliest possible start on PE [k]
    (data-ready time through the contention-aware communication
    scheduler, and the PE's schedule table) and the heterogeneity
    adjustment [delta(i, k) = mean_exec(i) - exec(i, k)] rewarding PEs
    that run the task faster than average. The pair with the largest
    dynamic level is committed.

    DLS maximises performance and is oblivious to energy — together with
    EDF it brackets EAS from the performance side, while
    {!Energy_greedy} brackets it from the energy side. *)

val static_levels : Noc_ctg.Ctg.t -> float array
(** [SL(i)]: longest mean-execution-time path from task [i] (inclusive)
    to any sink. *)

val schedule : Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> Noc_sched.Schedule.t
(** Places every task through {!Noc_sched.List_sched.place}, pricing
    each pair's earliest start with {!Noc_sched.List_sched.probe}. *)
