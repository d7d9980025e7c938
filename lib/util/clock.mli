(** Wall-clock timing for schedulers, experiments and benchmarks.

    Process CPU time ([Sys.time]) is meaningless once campaigns fan out
    over domains — every running domain keeps the counter ticking — so
    all [runtime_seconds] measurements use monotonic-enough wall time
    from this single helper. *)

val wall_s : unit -> float
(** Current wall-clock time in seconds (Unix epoch). Only differences
    are meaningful. *)
