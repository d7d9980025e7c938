(** The communication scheduler of the paper's Fig. 3: its models,
    routes and evaluation order.

    Given the list of receiving communication transactions (LCT) of a
    task, transactions are sorted by their sender's finish time; each is
    then assigned the earliest window of length [volume / bandwidth] that
    is free on {i every} link of its XY route, at or after the sender's
    finish, and reserved on all those links. {!List_sched} runs this walk,
    committing or read-only.

    The [Fixed_delay] model is the ablation discussed in the paper's
    introduction: previous work "just assumes a fixed delay proportional
    to the communication volume" — transactions start exactly at the
    sender's finish and link contention is ignored. Schedules built this
    way look feasible to the scheduler but can overlap on links; the
    {!Noc_sim} replay exposes the consequences. *)

type model =
  | Contention_aware  (** The paper's scheduler: links are reserved. *)
  | Fixed_delay  (** Naive model: no reservation, no contention. *)

val route :
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  src_pe:int ->
  dst_pe:int ->
  int list
(** The routers a transaction visits: [[src_pe]] on one tile, else the
    platform's (or non-trivial degraded view's) route. *)

val compare_sends :
  finish_a:float -> edge_a:int -> finish_b:float -> edge_b:int -> int
(** The Fig. 3 evaluation order over [(sender finish, edge id)] pairs:
    the earlier sender finish first, ties by edge id. Every caller that
    orders a task's incoming transactions uses this comparison. *)
