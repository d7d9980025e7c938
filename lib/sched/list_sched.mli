(** The list-scheduling step every scheduler places tasks through.

    A partial schedule on flat arrays, and the one Fig. 3 walk that
    times a task's incoming transactions on it: the walk sends the
    in-edges in the Fig. 3 order ({!Comm_sched.compare_sends}), each in
    the earliest window free on every link table of its route at or
    after its sender's finish, and the task then runs in the earliest
    gap of its PE at or after the latest arrival and its release time.
    {!place} commits a walk; {!probe} and {!data_ready} run the same walk
    and restore the tables after it, as the paper does, so a tentative
    placement, the paper's F(i,k), is timed exactly as its commit. EAS
    Step 2 ([Level_sched]), the Step-3 rebuild ([Rebuild]), EDF, DLS
    and energy-greedy keep only their selection policies, so they share
    one evaluation model and the comparisons between them isolate the
    objective. *)

type t = private {
  ctg : Noc_ctg.Ctg.t;
  comm_model : Comm_sched.model;
  state : Resource_state.t;  (** The link and PE tables every step reserves on. *)
  n_pes : int;
  hops : int array;
      (** The route lookup of the schedule's view (the platform, or the
          degraded view given to {!make}), indexed [src * n_pes + dst]:
          the route's hop count ({!Noc_noc.Platform.route_hops}), [-1]
          when the view disconnects the pair, and at the same index of
          [routes] the routers it visits ([[src]] on one tile), of
          [route_tables] its link tables in route order, and of
          [route_ids] their table ids ({!Resource_state.link_id}).
          Filled for every pair by {!make}, so walks and {!schedule}
          only read it. *)
  routes : int list array;
  route_tables : Noc_util.Timeline.t array array;
  route_ids : int array array;
  window : float array;
      (** Two cells of scratch for the Fig. 3 walk: each reservation's
          earliest start and duration go in, the start it took comes out
          ({!Resource_state.reserve_route_gap},
          {!Resource_state.reserve_pe_gap}). Under [-opaque] a float
          passed between modules is boxed; a float array cell is not, so
          a committed placement allocates nothing. Meaningless between
          calls. *)
  probe_mark : Resource_state.marks;
      (** One journal position: where {!data_ready} rolls back to, held
          in int arrays so that a probe allocates no mark. *)
  link_bandwidth : float;
  router_latency : float;
  in_start : int array;
      (** CSR rows: task [i]'s in-edges are
          [in_edge.(in_start.(i)) .. in_edge.(in_start.(i + 1) - 1)], in
          increasing id order, with their producers at the same
          positions of [pred]. *)
  in_edge : int array;
  in_order : int array;
      (** Scratch as long as the largest in-degree: the Fig. 3 walk sorts
          the task's in-edges into it. Meaningless between calls. *)
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
(** Fields are read freely. The arrays are written by {!place} (and
    written then restored by {!data_ready}), and by a caller that
    restores a saved partial schedule (the Step-3 rebuild puts an
    incumbent back after a candidate). *)

val make :
  ?comm_model:Comm_sched.model ->
  ?degraded:Noc_noc.Degraded.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  t
(** An empty partial schedule on fresh resource tables (default model
    [Contention_aware]). With [degraded], routes and durations follow
    the view's detours around failed links. *)

val place : t -> int -> int -> unit
(** [place t i k] places task [i] on PE [k] (its senders must all be
    placed): the Fig. 3 walk sends each in-edge, reserving its window on
    every link of its route through the state's journal (no reservation
    under [Fixed_delay], whose windows start at the sender's finish;
    none on one tile, where the window is the sender's finish) and
    recording it in [tx_start]/[tx_finish]; the task's start is then
    clamped to its release time and moved to the earliest gap of [k]'s
    table, which is reserved. Every window travels through [window], so
    the walk boxes no float. Raises [Invalid_argument] when a
    transaction cannot reach [k] on the degraded view, after reserving
    the transactions before it. *)

val data_ready : t -> int -> int -> unit
(** [data_ready t i k] writes into [window.(0)] the data-ready time
    {!place} would give the unplaced task [i] on PE [k]: its latest
    arrival ([0.] with no in-edges), or [infinity] when a sender cannot
    reach [k]. The time stays in [window], as in {!place}'s walk, so it
    is never boxed; [window.(1)] is left as scratch. It reserves and
    restores, as the paper times each F(i,k): a mark in [probe_mark]
    ({!Resource_state.set_mark}), {!place}'s walk of the in-edges, then
    a {!Resource_state.rollback_to} it and [nan] back in the in-edges'
    [tx_start]/[tx_finish]. The tables' busy sets and versions, the
    journal's position and the partial schedule end as they were (the
    journal's serial counter and the resource-state counters move). *)

val data_ready_stamp : t -> int -> int -> int
(** The sum of the {!Noc_util.Timeline.version}s of the shared tables
    {!data_ready}[ t i k] reads: the link tables of the routes of [i]'s
    in-edges towards [k], each counted once per in-edge routed over it;
    [0] when nothing can change {!data_ready}'s value (a sender that
    cannot reach [k], where it stays [infinity], the [Fixed_delay]
    model, or only same-tile senders). {!data_ready} is a function of
    those tables' busy sets alone. While the tables only gain intervals
    (probes restore theirs) each version can only grow, so the sum is
    unchanged exactly when every version is: a value cached against the
    stamp stays exact while the stamp holds. Allocates nothing. *)

val probe : t -> int -> int -> float
(** [probe t i k] is the start {!place} would give the unplaced task [i]
    on PE [k] (its finish is that start plus [i]'s execution time on
    [k]), or [infinity] when a sender cannot reach [k]: {!data_ready},
    then the earliest gap of [k]'s table. Leaves [t] as it found it, as
    {!data_ready} does. *)

val schedule : t -> Schedule.t
(** The partial schedule, every task placed, as a {!Schedule.t}: each
    transaction's route read from [routes]. *)

val schedule_of :
  t ->
  pe:int array ->
  start:float array ->
  finish:float array ->
  tx_start:float array ->
  tx_finish:float array ->
  Schedule.t
(** {!schedule} of placements and transaction windows held in the
    caller's arrays, laid out as [t]'s own (a copy of a complete partial
    schedule of [t]'s graph), with routes read from [t]. *)

val lateness : Noc_ctg.Task.t -> float -> float
(** [lateness task finish]: how far [finish] lies past the task's
    deadline when that is more than 1e-9, else [0.]. Every scheduler
    decides what is a miss with this, and so does the replay of
    [Noc_sim.Executor]. {!Metrics}, {!Validate} and the
    certifier report misses at 1e-6 instead, the tolerance they apply to
    every comparison, recomputed durations and overlaps included, whose
    rounding grows with the schedule's time scale. A scheduler compares
    one finish with one deadline, so its bound sits just above the
    rounding of that subtraction; being the tighter of the two, it
    means a schedule a scheduler counts as on time is on time for every
    report too. *)
