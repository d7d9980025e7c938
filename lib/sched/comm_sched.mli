(** The communication scheduler of the paper's Fig. 3.

    Given the list of receiving communication transactions (LCT) of a
    task, transactions are sorted by their sender's finish time; each is
    then assigned the earliest window of length [volume / bandwidth] that
    is free on {i every} link of its XY route, at or after the sender's
    finish, and reserved on all those links.

    The [Fixed_delay] model is the ablation discussed in the paper's
    introduction: previous work "just assumes a fixed delay proportional
    to the communication volume" — transactions start exactly at the
    sender's finish and link contention is ignored. Schedules built this
    way look feasible to the scheduler but can overlap on links; the
    {!Noc_sim} replay exposes the consequences. *)

type model =
  | Contention_aware  (** The paper's scheduler: links are reserved. *)
  | Fixed_delay  (** Naive model: no reservation, no contention. *)

type pending = {
  edge : int;
  src_pe : int;
  sender_finish : float;
  bits : float;
}
(** One receiving transaction still to be scheduled: the input of the
    EAS kernel's read-only probes. *)

val transmit :
  ?model:model ->
  ?degraded:Noc_noc.Degraded.t ->
  Resource_state.t ->
  src_pe:int ->
  dst_pe:int ->
  sender_finish:float ->
  bits:float ->
  Noc_util.Interval.t
(** The one transaction-placement routine: schedules [bits] from
    [src_pe] to [dst_pe], sent at [sender_finish], and returns its
    window [[start, finish)] (default model [Contention_aware]).
    Same-tile transactions complete instantaneously at the sender's
    finish and reserve nothing. Otherwise the window is the earliest one
    free on every link of the route at or after the sender's finish, and
    it is reserved on all those links through the state's journal.
    With [degraded], routes, durations and link reservations follow the
    degraded view's detours around failed links; raises
    [Invalid_argument] when the fault set disconnects the pair.
    {!List_sched.place} sends every transaction through this one. *)

val route :
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  src_pe:int ->
  dst_pe:int ->
  int list
(** The routers a transaction placed by {!transmit} visits: [[src_pe]]
    on one tile, else the platform's (or non-trivial degraded view's)
    route. *)

val compare_sends :
  finish_a:float -> edge_a:int -> finish_b:float -> edge_b:int -> int
(** The Fig. 3 evaluation order over [(sender finish, edge id)] pairs:
    the earlier sender finish first, ties by edge id. Every caller that
    orders a task's incoming transactions uses this comparison. *)

val sort_pendings : pending list -> pending list
(** Sorts by {!compare_sends}. The EAS kernel pre-sorts each task's
    pending list once with this, so its probes can skip the re-sort. *)
