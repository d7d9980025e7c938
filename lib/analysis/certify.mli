(** Independent schedule certifier.

    Re-verifies a complete schedule from first principles — precedence,
    PE and link mutual exclusion, route-walk validity, release and
    deadline windows, duration and Eq. 3 energy re-derivation — while
    deliberately sharing no code with {!Noc_sched.Validate}. The two
    implementations act as differential oracles: a schedule both accept
    is very unlikely to be infeasible through a bug either checker
    happens to contain. Rules (catalogued in DESIGN.md §7):

    - [sched/task-count], [sched/transaction-count] (error): the
      schedule does not cover the graph exactly.
    - [sched/pe-range] (error): a placement names a PE off the chip.
    - [sched/time-window] (error): a start before 0 or a finish before
      its start.
    - [sched/duration] (error): a task's window disagrees with the cost
      table, or a transaction's with its route length, bandwidth and
      router latency.
    - [sched/endpoint-pe] (error): a transaction departs or arrives on a
      PE its endpoint task does not run on.
    - [sched/route-walk] (error): a recorded route is not a real walk
      (wrong endpoints, non-adjacent step, repeated channel). Same-tile
      transfers may record either the empty route or the single shared
      tile.
    - [sched/pe-overlap], [sched/link-overlap] (error): two executions
      (or two reservations of one channel) overlap in time.
    - [sched/precedence] (error): a transaction departs before its
      sender finishes, or a receiver starts before its data arrives.
    - [sched/release], [sched/deadline] (error): a task runs outside its
      release-to-deadline window.
    - [sched/energy-mismatch] (warning): the claimed total energy
      disagrees with the certifier's own Eq. 3 re-derivation over the
      recorded routes. *)

val energy :
  Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> Noc_sched.Schedule.t -> float
(** The certifier's independent Eq. 3 total: per-variant computation
    energies plus, for every arc, [volume * E_bit(n_hops)] with the hop
    count taken from the {e recorded} route (so detours pay their real
    cost, unlike {!Noc_sched.Metrics} which assumes the deterministic
    route). *)

val check :
  ?claimed_energy:float ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  Diagnostic.t list
(** Certifies the schedule; empty means certified. Every comparison
    allows a fixed tolerance [eps] = 1e-6 (relative to [max(1, x)] for
    energies). [claimed_energy] is cross-checked against {!energy}
    within [eps * max(1, claimed)]; omitting it skips the energy rule.
    Pairwise checks only run when the per-element structure is sound,
    mirroring how a proof would not reason about overlap of malformed
    windows. *)

val check_scaled :
  ratios:float array ->
  annotations:Noc_sched.Schedule_io.annotation array ->
  base:Noc_sched.Schedule.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  Diagnostic.t list
(** Re-verifies a DVFS-scaled schedule against its unscaled base and a
    raw frequency ladder [ratios] (descending, level 0 = 1.0).
    Deliberately independent of the [noc_dvfs] reclamation pass, so a
    bug there cannot leak into its own audit. Rules on top of the
    [sched/*] catalogue:

    - [dvfs/vf-table] (error): the ladder is not a strictly descending
      set of ratios in (0, 1] anchored at 1.
    - [dvfs/annotation] (error): the annotations do not cover the tasks
      exactly, in task order.
    - [dvfs/level-range] (error): an annotation names a level off the
      ladder, or a frequency disagreeing with its level.
    - [dvfs/start-shift] (error): a task changed PE or start time.
    - [dvfs/window] (error): a scaled finish precedes its base finish
      (the base window must be contained in the scaled one).
    - [dvfs/duration] (error): a scaled window disagrees with
      slowdown(level) × the base schedule's duration.
    - [dvfs/comm-frozen] (error): a transaction differs from the base
      schedule in any field (window, route, endpoints).
    - [dvfs/energy] (error): an annotated task energy disagrees with
      base × (f/f_max)².
    - [dvfs/energy-monotone] (error): total scaled computation energy
      exceeds the unscaled total.

    The standard pairwise suite (exclusions, precedence, release and
    deadline windows) then re-runs on the scaled timeline, so a
    downclock that overran its slack is caught by the same rules that
    certify unscaled schedules. *)
