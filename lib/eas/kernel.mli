(** Flat-array scheduling kernel: the dense cost matrices behind EAS.

    [build] precomputes, once per (platform, graph) pair, everything the
    EAS inner loop used to re-derive per candidate probe: per-(task, PE)
    computation time and energy, per-task release/mean/weight, and
    per-(src, dst) route hops, bit energy and link arrays — flat
    [float array]s indexed [task * n_pes + pe] and [src * n_pes + dst].

    Every value is produced by exactly the float expression the placing
    path ({!Noc_sched.List_sched.place} through
    {!Noc_sched.Comm_sched.transmit}, and the test-only
    [Level_sched_reference]) evaluates — same operands, same operation order — so schedules
    computed through the kernel are bit-identical to the reference. The
    differential suite ([test_kernel_diff]) and the qcheck matrix
    properties ([test_kernel]) enforce this.

    On a degraded platform the matrices are built over the surviving
    routes; a disconnected (src, dst) pair is stored with [hops = -1]
    and surfaces as [Invalid_argument] ({!comm_energy},
    {!comm_duration}), [infinity] ({!comm_energy_inf}) or an infinite
    finish time ({!finish_time}), matching the reference path's
    behaviour exactly. *)

type t

val build : ?degraded:Noc_noc.Degraded.t -> Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> t
(** Builds the matrices. With a non-trivial [degraded] view, routes,
    hops and energies follow the view's detours and disconnections; a
    trivial view mirrors the platform (same convention as
    {!Noc_sched.Comm_sched.transmit}). *)

val n_tasks : t -> int
val n_pes : t -> int

val exec_time : t -> task:int -> pe:int -> float
val exec_energy : t -> task:int -> pe:int -> float

val mean_time : t -> int -> float
(** {!Noc_ctg.Task.mean_exec_time}, precomputed — {!Budget.compute}
    reads these instead of re-averaging the rows. *)

val weight : t -> int -> float
(** {!Noc_ctg.Task.weight} (the paper's [W = VAR_e * VAR_r]). *)

val release : t -> int -> float
(** The task's release time, or [neg_infinity] when unconstrained (an
    identity for the [Float.max] the ready-time computation applies). *)

val hops : t -> src:int -> dst:int -> int
(** Route hop count; [-1] when the fault set disconnects the pair. *)

val reachable : t -> src:int -> dst:int -> bool

val comm_duration : t -> src:int -> dst:int -> bits:float -> float
(** Same float as {!Noc_noc.Platform.comm_duration} (or the degraded
    view's {!Noc_noc.Degraded.comm_duration}). Raises [Invalid_argument]
    on a disconnected pair. *)

val comm_energy : t -> src:int -> dst:int -> bits:float -> float
(** Same float as {!Noc_noc.Platform.comm_energy} /
    {!Noc_noc.Degraded.comm_energy}. Raises [Invalid_argument] on a
    disconnected pair. *)

val comm_energy_inf : t -> src:int -> dst:int -> bits:float -> float
(** Like {!comm_energy} but a disconnected pair prices as [infinity]
    (never [bits *. infinity], which would be NaN for a zero-volume
    arc) — the ordering convention of {!Repair}'s GTM move pricing. *)

val data_ready :
  ?model:Noc_sched.Comm_sched.model ->
  t ->
  Noc_sched.Resource_state.t ->
  pendings:Noc_sched.Comm_sched.pending list ->
  pe:int ->
  float
(** Read-only DRT probe: schedules the receiving transactions of
    [pendings] (which must already be sorted by
    {!Noc_sched.Comm_sched.sort_pendings}, the order in which
    {!Noc_sched.List_sched.place} sends them)
    towards [pe] against the shared link tables without mutating them —
    tentative reservations go to private per-probe overlay timelines,
    and feasibility is checked on shared table plus overlay, which sees
    the same merged busy set the reserve-then-rollback path sees.
    Returns the latest arrival ([0.] with no pendings), or [infinity]
    when a predecessor cannot reach [pe]. Safe to call concurrently
    from {!Noc_util.Pool} workers as long as nobody mutates [state]. *)

val finish_time :
  ?model:Noc_sched.Comm_sched.model ->
  t ->
  Noc_sched.Resource_state.t ->
  pendings:Noc_sched.Comm_sched.pending list ->
  task:int ->
  pe:int ->
  float
(** F(task, pe): {!data_ready}, then the earliest gap of the task's
    execution time on [pe]'s table at or after [max drt release] —
    bit-identical to the reference's reserve-then-rollback probe
    ([infinity] when a predecessor cannot reach [pe]). {!Level_sched}
    inlines the second stage so it can cache the two stages separately;
    this composition is the differential tests' single-probe entry. *)

val drt_deps :
  ?model:Noc_sched.Comm_sched.model ->
  t ->
  Noc_sched.Resource_state.t ->
  pendings:Noc_sched.Comm_sched.pending list ->
  pe:int ->
  Noc_util.Timeline.t array
(** The shared tables a {!data_ready} probe for these arguments
    consults: the link tables of every pending's route towards [pe].
    The set is static per (task, pe) — pendings are fixed once a task
    is ready — so the DRT is a pure function of these tables' busy
    sets, and a cached value revalidated against their
    {!Noc_util.Timeline.version}s is exactly the value a fresh probe
    would return. Returns [[||]] when the DRT is static and depends on
    no table at all: a disconnected predecessor (DRT stuck at
    [infinity]), the [Fixed_delay] model (no reservations), or pendings
    that are all same-tile. F(task, pe) additionally depends on PE
    [pe]'s own table, which {!Level_sched} versions separately — a
    commit elsewhere on the mesh typically moves only that table, and
    the re-probe then costs one binary search instead of a full
    communication re-schedule. *)
