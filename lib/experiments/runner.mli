(** Shared machinery for the paper's experiments: the three scheduler
    configurations of Sec. 6 and their evaluation on a (platform, CTG)
    pair. *)

type algo = Eas | Eas_base | Edf

val all_algos : algo list
val algo_name : algo -> string

val algo_of_string : string -> algo option
(** ["eas"], ["eas-base"] or ["edf"], in any case. *)

type evaluation = {
  algo : algo;
  metrics : Noc_sched.Metrics.t;
  runtime_seconds : float;
  resource_violations : int;
      (** Non-deadline validator findings; always 0 for a correct
          scheduler, recorded so experiments fail loudly otherwise. *)
}

val traced : label:string -> (unit -> 'a) -> 'a
(** [traced ~label f] runs one campaign trial under the observability
    subsystem: a [Noc_obs.Decisions] run context named [label] (so the
    decision log sorts deterministically regardless of which pool worker
    ran the trial) and an [experiment/trial] trace span. [label] must be
    unique per trial and derived from the trial's own parameters. *)

val evaluate :
  ?pinned:int array ->
  algo ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  evaluation

val schedule_of :
  ?comm_model:Noc_sched.Comm_sched.model ->
  ?pinned:int array ->
  ?kernel:Noc_eas.Kernel.t ->
  ?jobs:int ->
  algo ->
  Noc_noc.Platform.t ->
  Noc_ctg.Ctg.t ->
  Noc_sched.Schedule.t
(** [jobs] parallelises the EAS candidate walks on {!Noc_util.Pool}
    (default 1; EDF ignores it). Schedules are bit-identical at every
    job count. [kernel] reuses a prebuilt EAS kernel (EDF ignores it).
    [pinned] fixes the task-to-PE assignment for the EAS variants (see
    {!Noc_eas.Eas.schedule}); EDF raises [Invalid_argument] when given
    one. *)

val resource_violations :
  Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> Noc_sched.Schedule.t -> int
(** The {!Noc_sched.Validate} findings other than deadline misses. *)

val savings : baseline:float -> float -> float
(** [savings ~baseline v] is [(baseline - v) / baseline]; the paper's
    "Energy Savings (%)" with EDF as the baseline. *)
