(** Energy-greedy mapping: a deadline-oblivious lower-bound heuristic.

    Tasks are visited in topological order; each goes to the PE
    minimising its own computation energy plus the communication energy
    of its already-placed incoming arcs (exactly EAS's rule-4 energy
    metric, but with no deadline constraint and no regret ordering).
    Timing still goes through the step every scheduler shares,
    {!Noc_sched.List_sched.place}, so the schedule is
    resource-feasible — it just ignores deadlines entirely.

    Together with {!Dls} this brackets EAS: when deadlines are loose EAS
    should approach this heuristic's energy; when they are tight EAS
    must spend more, while this heuristic starts missing deadlines. *)

val schedule : Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> Noc_sched.Schedule.t
