(** The communication scheduler of the paper's Fig. 3: its models and
    evaluation order.

    Given the list of receiving communication transactions (LCT) of a
    task, transactions are sorted by their sender's finish time; each is
    then assigned the earliest window of length [volume / bandwidth] that
    is free on {i every} link of its XY route, at or after the sender's
    finish, and reserved on all those links. {!List_sched} runs this walk,
    to commit a placement or, rolled back, to time a tentative one.

    The [Fixed_delay] model is the ablation discussed in the paper's
    introduction: previous work "just assumes a fixed delay proportional
    to the communication volume" — transactions start exactly at the
    sender's finish and link contention is ignored. Schedules built this
    way look feasible to the scheduler but can overlap on links; the
    {!Noc_sim} replay exposes the consequences. *)

type model =
  | Contention_aware  (** The paper's scheduler: links are reserved. *)
  | Fixed_delay  (** Naive model: no reservation, no contention. *)

val compare_sends : finish:float array -> edge_src:int array -> int -> int -> int
(** [compare_sends ~finish ~edge_src a b] is the Fig. 3 evaluation
    order of edges [a] and [b], whose senders are [edge_src.(a)] and
    [edge_src.(b)] and finish at [finish.(edge_src.(_))]: the earlier
    sender finish first, ties by edge id. Every caller that orders a
    task's incoming transactions uses this comparison. The finishes are
    read from the caller's array, so no float is boxed per
    comparison. *)
