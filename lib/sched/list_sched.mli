(** The list-scheduling step every scheduler places tasks through.

    A partial schedule on flat arrays, and the one function that places
    a task on it: the task receives its transactions through
    {!Comm_sched.transmit} in the Fig. 3 order, then runs in the
    earliest gap of its PE at or after its data-ready and release time.
    EAS Step 2 ([Level_sched]), the Step-3 rebuild ([Rebuild]), EDF, DLS
    and energy-greedy keep only their selection policies and call
    {!place} (and {!probe}), so they share one evaluation model and the
    comparisons between them isolate the objective. *)

type t = private {
  ctg : Noc_ctg.Ctg.t;
  comm_model : Comm_sched.model option;
  degraded : Noc_noc.Degraded.t option;
  state : Resource_state.t;  (** The link and PE tables every step reserves on. *)
  in_start : int array;
      (** CSR rows: task [i]'s in-edges are
          [in_edge.(in_start.(i)) .. in_edge.(in_start.(i + 1) - 1)], in
          increasing id order, with their producers at the same
          positions of [pred]. *)
  in_edge : int array;
  pred : int array;
  succ_start : int array;  (** Successor rows, laid out the same way. *)
  succ : int array;
  edge_src : int array;
  volume : float array;
  pe : int array;  (** [-1] while the task is unplaced. *)
  start : float array;  (** [nan] while the task is unplaced. *)
  finish : float array;
  tx_start : float array;
      (** Window of each edge's transaction, [nan] until its receiver is
          placed. Its PEs are those of the edge's endpoints, and its
          route is derived from them by {!schedule}. *)
  tx_finish : float array;
  incoming : int array;  (** Scratch: one task's in-edges in Fig. 3 order. *)
}
(** Fields are read freely. The arrays are written by {!place} and
    {!probe}, and by a caller that restores a saved partial schedule
    (the Step-3 rebuild puts an incumbent back after a candidate). *)

val make :
  ?comm_model:Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  t
(** An empty partial schedule on fresh resource tables. *)

val place : t -> int -> int -> unit
(** [place t i k] places task [i] on PE [k]: its in-edges sorted by
    {!Comm_sched.compare_sends} (the senders must all be placed), each
    sent through {!Comm_sched.transmit} and its window recorded, then
    the start clamped to the task's release time and moved to the
    earliest gap of [k]'s table, which is reserved. Raises
    [Invalid_argument] when a transaction cannot reach [k] on the
    degraded view, after reserving the transactions before it. *)

val probe : t -> int -> int -> float
(** [probe t i k] is the start {!place} would give the unplaced task [i]
    on PE [k] (its finish is that start plus [i]'s execution time on
    [k]). It places, reads and rolls back: the partial schedule and
    every table's busy set are left as they were, also when it raises. *)

val schedule : t -> Schedule.t
(** The partial schedule, every task placed, as a {!Schedule.t}: routes
    from {!Comm_sched.route}. *)

val lateness : Noc_ctg.Task.t -> float -> float
(** [lateness task finish]: how far [finish] lies past the task's
    deadline when that is more than 1e-9, else [0.]. Every scheduler
    decides what is a miss with this. {!Metrics}, {!Validate} and the
    certifier report misses at 1e-6 instead, the tolerance they apply to
    every comparison, recomputed durations and overlaps included, whose
    rounding grows with the schedule's time scale. A scheduler compares
    one finish with one deadline, so its bound sits just above the
    rounding of that subtraction; being the tighter of the two, it
    means a schedule a scheduler counts as on time is on time for every
    report too. *)
