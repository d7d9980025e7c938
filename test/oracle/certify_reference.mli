(** Frozen list-based certifier: the executable specification of
    {!Noc_analysis.Certify}. Same signature; the differential tests
    require both to return the same diagnostics. *)

module Diagnostic = Noc_analysis.Diagnostic

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
