(** Flat-array price kernel: the dense cost matrices behind EAS.

    [build] precomputes, once per problem, every price the EAS loops
    would otherwise re-derive per candidate: per-task release/mean/weight
    and per-(src, dst) route hops and bit energy, flat arrays indexed
    by task and [src * n_pes + dst]. Per-(task, PE) computation time and
    energy are read from the graph's own task rows. Timing is not here:
    F(i,k) comes from {!Noc_sched.List_sched}'s Fig. 3 walk.

    Every value is produced by exactly the float expression the
    per-call platform query (and the test-only [Level_sched_reference])
    evaluates — same operands, same operation order — so schedules
    computed through the kernel are bit-identical to the reference. The
    differential suite ([test_kernel_diff]) and the qcheck matrix
    properties ([test_kernel]) enforce this.

    The kernel records the whole problem it priced: {!platform}, {!ctg},
    {!comm_model} and the fault view {!degraded}, which {!Rebuild},
    {!Repair.move_energy} and [lib/map] read from it. The entry points
    that still take a platform and a graph beside it, as [perfbench/]
    calls them, raise through {!check} unless those are the kernel's
    own. Over a view the matrices follow the surviving routes; a
    disconnected (src, dst) pair is stored with [hops = -1] and surfaces
    as [Invalid_argument] ({!comm_energy}, {!comm_duration}) or
    [infinity] ({!comm_energy_inf}), matching the reference path's
    behaviour exactly. *)

type t

val build :
  ?degraded:Noc_noc.Degraded.t ->
  ?comm_model:Noc_sched.Comm_sched.model ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  t
(** Builds the matrices, over the routes of [degraded] when given
    (its detours and disconnections), else over the platform's.
    Schedules built from the kernel time transactions under
    [comm_model] (default [Contention_aware]; [Fixed_delay] is the
    Sec. 6 ablation). *)

val platform : t -> Noc_noc.Platform.t
val ctg : t -> Noc_ctg.Ctg.t
val comm_model : t -> Noc_sched.Comm_sched.model

val degraded : t -> Noc_noc.Degraded.t option
(** The fault view the kernel was built over. *)

val check : t -> caller:string -> Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> unit
(** Raises [Invalid_argument], naming [caller], unless the platform
    and graph are physically ([==]) the kernel's own. *)

val pe_alive : t -> int -> bool
(** Whether the PE may run tasks: always on a kernel without a view. *)

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
