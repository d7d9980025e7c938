(** The list-based Fig. 3 entry points of {!Noc_sched.Comm_sched}, kept
    verbatim after their last library caller moved onto
    {!Noc_sched.List_sched.place}. Together with
    {!Noc_sched.Resource_state.earliest_pe_gap} they are the path the
    shared step must agree with bit for bit ([test_sched_core]). *)

val place :
  ?model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_sched.Resource_state.t ->
  Noc_sched.Comm_sched.pending ->
  dst_pe:int ->
  Noc_sched.Schedule.transaction
(** Schedules a single transaction towards [dst_pe] with
    {!Noc_sched.Comm_sched.transmit} and records it with its
    {!Noc_sched.Comm_sched.route}. *)

val schedule_incoming :
  ?model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_sched.Resource_state.t ->
  Noc_sched.Comm_sched.pending list ->
  dst_pe:int ->
  Noc_sched.Schedule.transaction list * float
(** [schedule_incoming state lct ~dst_pe] runs Fig. 3: sorts [lct] by
    sender finish time (ties by edge id), places every transaction, and
    returns them (in input order of the sorted list) together with the
    data-ready time [DRT] — the latest arrival, or [0.] when the task
    receives nothing. *)
