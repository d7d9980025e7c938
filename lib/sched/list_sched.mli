(** The list-scheduling step every scheduler places tasks through.

    A partial schedule on flat arrays, and the one Fig. 3 walk that
    times a task's incoming transactions on it: the walk sends the
    in-edges in the Fig. 3 order ({!Comm_sched.compare_sends}), each in
    the earliest window free on every link table of its route at or
    after its sender's finish, and the task then runs in the earliest
    gap of its PE at or after the latest arrival and its release time.
    {!place} commits a walk; {!probe} and {!data_ready} run the same walk
    read-only, so a tentative placement, the paper's F(i,k), is timed
    exactly as its commit. EAS Step 2 ([Level_sched]), the Step-3
    rebuild ([Rebuild]), EDF, DLS and energy-greedy keep only their
    selection policies, so they share one evaluation model and the
    comparisons between them isolate the objective. *)

type t = private {
  ctg : Noc_ctg.Ctg.t;
  comm_model : Comm_sched.model;
  degraded : Noc_noc.Degraded.t option;
  state : Resource_state.t;  (** The link and PE tables every step reserves on. *)
  n_pes : int;
  hops : int array;
      (** The route lookup of the schedule's view (the platform, or the
          degraded view when it is not trivial), indexed
          [src * n_pes + dst]: the route's hop count
          ({!Noc_noc.Platform.hops}, or {!Noc_noc.Platform.route_hops} of
          the view's route), [-1] when the view
          disconnects the pair, and at the same index of [route_tables]
          the route's link tables in route order. Filled for every pair
          by {!make}, so walks only read it. *)
  route_tables : Noc_util.Timeline.t array array;
  link_bandwidth : float;
  router_latency : float;
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
}
(** Fields are read freely. The arrays are written by {!place}, and by
    a caller that restores a saved partial schedule (the Step-3 rebuild
    puts an incumbent back after a candidate). *)

val make :
  ?comm_model:Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  t
(** An empty partial schedule on fresh resource tables (default model
    [Contention_aware]). With a non-trivial [degraded] view, routes and
    durations follow its detours around failed links. *)

val place : t -> int -> int -> unit
(** [place t i k] places task [i] on PE [k] (its senders must all be
    placed): the Fig. 3 walk sends each in-edge, reserving its window on
    every link of its route through the state's journal (no reservation
    under [Fixed_delay], whose windows start at the sender's finish;
    none on one tile, where the window is the sender's finish) and
    recording it in [tx_start]/[tx_finish]; the task's start is then
    clamped to its release time and moved to the earliest gap of [k]'s
    table, which is reserved. Raises [Invalid_argument] when a
    transaction cannot reach [k] on the degraded view, after reserving
    the transactions before it. *)

val data_ready : t -> int -> int -> float
(** [data_ready t i k] is the data-ready time {!place} would give the
    unplaced task [i] on PE [k], its latest arrival ([0.] with no
    in-edges), or [infinity] when a sender cannot reach [k]. The walk
    is read-only: it reserves its windows in private per-call timelines
    and writes neither the partial schedule, nor any table, nor the
    journal, so it may run on {!Noc_util.Pool} workers as long as
    nobody writes [t] meanwhile. *)

val data_ready_tables : t -> int -> int -> Noc_util.Timeline.t array
(** The shared tables {!data_ready}[ t i k] reads: the link tables of
    the routes of [i]'s in-edges towards [k]. [data_ready] is a function
    of their busy sets alone, so a value cached against their
    {!Noc_util.Timeline.version}s stays exact while the versions hold.
    [[||]] when nothing can change it: a sender that cannot reach [k]
    (the value stays [infinity]), the [Fixed_delay] model, or only
    same-tile senders. *)

val probe : t -> int -> int -> float
(** [probe t i k] is the start {!place} would give the unplaced task [i]
    on PE [k] (its finish is that start plus [i]'s execution time on
    [k]), or [infinity] when a sender cannot reach [k]: {!data_ready},
    then the earliest gap of [k]'s table. Read-only and pool-safe as
    {!data_ready}. *)

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
