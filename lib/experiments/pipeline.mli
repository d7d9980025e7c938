(** The one scheduling pipeline of the front ends: schedule a graph on a
    platform, derive the Eq.-3 metrics, certify the schedule and, given
    a V/f ladder, reclaim its slack (EAS Step 4) and certify the scaled
    schedule. The [nocsched] subcommands, the [serve] daemon and every
    campaign run it, so a one-shot run, a daemon reply and a table row
    come from the same code. *)

val mesh_platform : ?routing:Noc_noc.Turn_model.t -> int * int -> Noc_noc.Platform.t
(** [mesh_platform (cols, rows)] is the heterogeneous mesh every front
    end schedules on (PE seed 42; [routing] defaults to XY). *)

type request = {
  algo : Runner.algo;
  pinned : int array option;  (** Fixed task-to-PE mapping (EAS variants). *)
  ladder : Noc_dvfs.Vf_table.t option;  (** Reclaim slack on this ladder. *)
}

val request : Runner.algo -> request
(** [algo] with every other field [None]. *)

type dvfs = {
  reclaim : Noc_dvfs.Reclaim.result;
  scaled_misses : int;  (** Deadline misses of the scaled schedule. *)
  scaled_diagnostics : Noc_analysis.Diagnostic.t list;
      (** {!Noc_analysis.Certify.check_scaled} against the unscaled base. *)
}

type t = {
  schedule : Noc_sched.Schedule.t;  (** The unscaled schedule. *)
  metrics : Noc_sched.Metrics.t;  (** Its Eq.-3 metrics. *)
  runtime_seconds : float;  (** Wall time of the scheduler alone. *)
  diagnostics : Noc_analysis.Diagnostic.t list;
      (** The certifier's verdict on [schedule], with the claimed energy
          cross-checked. *)
  dvfs : dvfs option;  (** Present when the request carried a ladder. *)
}

val run : Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> request -> t
(** Schedules with the request's algorithm (EAS, EAS without Step 3, or
    EDF), computes the metrics and certifies the schedule, then reclaims
    its slack when the request carries a ladder. It runs in the calling
    domain. Raises [Invalid_argument] when EDF is given a pinned
    mapping. *)

exception Uncertified of Noc_analysis.Diagnostic.t
(** The first error-severity diagnostic, other than a deadline miss, of
    a schedule that {!gate} rejected. *)

val gate : Noc_analysis.Diagnostic.t list -> unit
(** [gate diagnostics] raises {!Uncertified} on the first error other
    than [sched/deadline]: the check every campaign row passes. Deadline
    misses are results the tables report, not failures. *)

val evaluate : Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> request -> t
(** {!run}, then {!gate} on the base schedule's diagnostics: how the
    campaigns schedule. *)

val reclaim :
  table:Noc_dvfs.Vf_table.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  dvfs
(** Reclaims the slack of an already certified base (a cached one) and
    certifies the scaled schedule against it. *)

val certify :
  ?scaled:float array * Noc_sched.Schedule_io.annotation array * Noc_sched.Schedule.t ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t ->
  Noc_analysis.Diagnostic.t list
(** [certify platform ctg base] certifies [base], cross-checking the
    claimed energy (its Eq.-3 total), followed, when [scaled] gives a
    raw ladder, per-task annotations and the scaled schedule, by the
    scaled checks against [base]. *)

val refusal : Noc_analysis.Diagnostic.t list -> string option
(** The message that refuses a schedule with an error-severity
    diagnostic: the error and warning counts and the first error. *)

val reschedule :
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  faults:Noc_fault.Fault_set.t ->
  Noc_sched.Schedule.t ->
  (Noc_eas.Fault_resched.outcome * Noc_analysis.Diagnostic.t list, string) result
(** {!Noc_eas.Fault_resched.run} and the certifier's verdict on its
    schedule. Detours legitimately diverge from the deterministic-route
    energy of {!Noc_sched.Metrics}, so no claimed energy is checked. A
    fault set that leaves the graph unschedulable is [Error] with a
    message that starts with ["reschedule: "]. *)
