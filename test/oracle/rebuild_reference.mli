(** Frozen list-based list scheduler: the executable specification of
    {!Noc_eas.Rebuild.run} and of the shared step it places through,
    {!Noc_sched.List_sched.place}.

    This is the Step-3 step as it stood before it moved onto flat arrays:
    a [Set] of ready tasks, the graph's adjacency lists, and per
    transaction a route-list lookup, a merged-table gap search over the
    route's links and one journalled reservation per link. It reads and
    writes the shared state only through the public
    {!Noc_sched.Resource_state} list APIs. The differential tests require
    the optimised paths to agree with it byte for byte, and the repair
    and level-scheduling oracles place through it. *)

val schedule_incoming :
  ?model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_sched.Resource_state.t ->
  Noc_sched.Comm_sched.pending list ->
  dst_pe:int ->
  Noc_sched.Schedule.transaction list * float
(** Fig. 3: the pendings sorted by sender finish (ties by edge id), each
    placed in the earliest window free on every link of its route, and
    the latest arrival as the data-ready time ([0.] for none). *)

val run :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  assignment:int array ->
  rank:int array ->
  Noc_sched.Schedule.t
(** {!Noc_eas.Rebuild.run}, with the same errors. *)
