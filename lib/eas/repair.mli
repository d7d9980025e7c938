(** EAS Step 3: search and repair (Fig. 4).

    Post-processes a schedule with deadline misses. Two move kinds
    alternate, both accepted only when the number of missed deadlines
    strictly decreases (hence the greedy procedure always converges):

    - {b Local task swapping (LTS)}: a critical task (one that misses its
      deadline or is an ancestor of one that does) is moved earlier on
      its own PE by swapping its execution order with a non-critical task
      scheduled before it on the same PE. LTS never changes the
      task-to-PE assignment, so the schedule energy is untouched.
    - {b Global task migration (GTM)}: when no swap helps, a critical
      task is migrated to another PE; destination PEs are tried in
      increasing order of the move's estimated energy (computation on
      the destination plus communication of all arcs incident to the
      task), so the cheapest repair is found first.

    After a successful migration the procedure re-enters LTS mode, as in
    the paper's flow chart. *)

type moves =
  | Both  (** The paper's procedure: LTS first, GTM when LTS is stuck. *)
  | Lts_only  (** Swap-only ablation: energy provably untouched. *)
  | Gtm_only  (** Migration-only ablation. *)

type stats = {
  accepted_swaps : int;
  accepted_migrations : int;
  evaluations : int;
      (** Candidate moves priced, accepted or not (each at most one
          suffix re-placement; see {!Rebuild.evaluate}). *)
}

val score : Noc_ctg.Ctg.t -> Noc_sched.Schedule.t -> int * float
(** The search objective: the number of tasks
    {!Noc_sched.List_sched.lateness} finds late, and their total
    lateness summed in task-id order. *)

val improves : int * float -> int * float -> bool
(** [improves candidate incumbent]: fewer misses, or as many and at
    least 1e-6 less total lateness. The acceptance test of every move,
    and {!Fault_resched}'s choice between its repaired and re-run
    schedules. *)

val critical_tasks : Noc_ctg.Ctg.t -> Noc_sched.Schedule.t -> bool array
(** [critical_tasks ctg s] marks every task that misses its own deadline
    and every ancestor of such a task. *)

val move_energy :
  Kernel.t -> Noc_ctg.Ctg.t -> assignment:int array -> int -> int -> float
(** [move_energy kernel ctg ~assignment i k] estimates the energy of
    running task [i] on PE [k]: computation on [k] plus communication of
    every incident arc whose other endpoint is fixed by [assignment],
    priced from the kernel matrices. On a kernel built over a degraded
    view, detours are priced by their real length and a disconnected
    pair costs [infinity]. Orders GTM destinations and
    {!Fault_resched}'s migrations. *)

val run :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?kernel:Kernel.t ->
  ?max_evaluations:int ->
  ?moves:moves ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  Noc_sched.Schedule.t * stats
(** Returns the repaired schedule (the input when nothing helps) and the
    search statistics. [max_evaluations] (default 4000) bounds the
    candidate evaluations as a safety net; [moves] (default [Both]) restricts the move
    set for the repair ablation. [kernel] (built over the fault-free
    platform otherwise) must be built for the same platform and graph;
    on a kernel with a fault view ({!Kernel.degraded}), GTM only migrates
    onto alive PEs, rebuilds detour around failed links, and move
    energies are priced over the degraded routes — the engine behind
    {!Fault_resched}. *)
