(** Flat-array price kernel: the dense cost matrices behind EAS.

    [build] precomputes, once per (platform, graph, fault view), every
    price the EAS loops would otherwise re-derive per candidate:
    per-(task, PE) computation time and energy, per-task
    release/mean/weight, and per-(src, dst) route hops and bit energy —
    flat [float array]s indexed [task * n_pes + pe] and
    [src * n_pes + dst]. Timing is not here: F(i,k) comes from
    {!Noc_sched.List_sched}'s Fig. 3 walk.

    Every value is produced by exactly the float expression the
    per-call platform query (and the test-only [Level_sched_reference])
    evaluates — same operands, same operation order — so schedules
    computed through the kernel are bit-identical to the reference. The
    differential suite ([test_kernel_diff]) and the qcheck matrix
    properties ([test_kernel]) enforce this.

    The kernel is where the fault view enters EAS: it keeps the view it
    priced ({!degraded}), and {!Level_sched.run}, {!Repair.run} and
    {!Eas.schedule} read it from there, so the prices, the alive PEs and
    the routes a schedule takes all come from one view. Over a view the
    matrices follow the surviving routes; a disconnected (src, dst)
    pair is stored with [hops = -1] and surfaces as [Invalid_argument]
    ({!comm_energy}, {!comm_duration}) or [infinity]
    ({!comm_energy_inf}), matching the reference path's behaviour
    exactly. *)

type t

val build : ?degraded:Noc_noc.Degraded.t -> Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> t
(** Builds the matrices, over the routes of [degraded] when given
    (its detours and disconnections), else over the platform's. *)

val degraded : t -> Noc_noc.Degraded.t option
(** The fault view the kernel was built over. *)

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
