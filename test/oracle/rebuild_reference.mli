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

type pending = { edge : int; src_pe : int; sender_finish : float; bits : float }
(** One receiving transaction still to be scheduled: its edge, the PE
    and finish time of its sender, and its volume. *)

val earliest_common_gap :
  Noc_util.Timeline.t list -> after:float -> duration:float -> float
(** The earliest [s >= after] such that [[s, s + duration)] is free on
    every table: the fixpoint of single-table
    {!Noc_util.Timeline.earliest_gap} over the tables. [after] for no
    table or a zero duration. The oracle of
    {!Noc_util.Timeline.reserve_gap_multi}'s search. *)

val earliest_route_gap :
  Noc_sched.Resource_state.t ->
  route:Noc_noc.Routing.link list ->
  after:float ->
  duration:float ->
  float
(** {!earliest_common_gap} over the route's link tables: the paper's
    merged path schedule table (Fig. 3). The oracle of
    {!Noc_sched.Resource_state.reserve_route_gap}'s search. *)

val place_transaction :
  ?model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_sched.Resource_state.t ->
  pending ->
  dst_pe:int ->
  Noc_sched.Schedule.transaction
(** One Fig. 3 transaction towards [dst_pe], with its route: on one
    tile it completes at the sender's finish; otherwise it takes the
    earliest window free on every link of its route at or after the
    sender's finish (with [Fixed_delay], the sender's finish itself),
    reserved link by link unless the model is [Fixed_delay]. *)

val schedule_incoming :
  ?model:Noc_sched.Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_sched.Resource_state.t ->
  pending list ->
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
