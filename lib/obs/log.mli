(** Leveled logger for status and progress reporting.

    Everything goes to stderr so stdout stays machine-clean: tables,
    metrics, JSON reports and Gantt charts are results and belong on
    stdout; "scheduler runtime", "certified", "wrote FILE" are status
    and belong here.

    The level is stored in an [Atomic.t] and may be read from any
    domain; campaign workers logging at [Debug] interleave at line
    granularity (each message is a single [output_string]). *)

type level = Error | Warn | Info | Debug

val set_level : level -> unit

val of_string : string -> level option
(** Accepts ["error"]/["quiet"], ["warn"]/["warning"], ["info"],
    ["debug"] (case-insensitive). *)

val to_string : level -> string

val init_from_env : unit -> unit
(** Apply [NOCSCHED_LOG] when set; an unrecognised value is reported at
    the current level and otherwise ignored. *)

val errorf : ('a, out_channel, unit) format -> 'a
val warnf : ('a, out_channel, unit) format -> 'a
val infof : ('a, out_channel, unit) format -> 'a
