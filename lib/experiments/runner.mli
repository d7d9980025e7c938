(** The three scheduler configurations of Sec. 6, the trial wrapper of
    every campaign and the paper's savings figure. {!Pipeline.run}
    schedules and certifies a configuration on a (platform, CTG)
    pair. *)

type algo = Eas | Eas_base | Edf

val algo_name : algo -> string

val algo_of_string : string -> algo option
(** ["eas"], ["eas-base"] or ["edf"], in any case. *)

val traced : label:string -> (unit -> 'a) -> 'a
(** [traced ~label f] runs one campaign trial under the observability
    subsystem: a [Noc_obs.Decisions] run context named [label] (so the
    decision log sorts deterministically regardless of which pool worker
    ran the trial) and an [experiment/trial] trace span. [label] must be
    unique per trial and derived from the trial's own parameters. *)

val savings : baseline:float -> float -> float
(** [savings ~baseline v] is [(baseline - v) / baseline]; the paper's
    "Energy Savings (%)" with EDF as the baseline. *)
