(** The contention ablation: why communication must be co-scheduled.

    The paper argues (Sec. 1) that assuming "a fixed delay proportional
    to the communication volume" is unsafe because congestion changes
    delays dynamically. We quantify this: EAS is run once with its real
    contention-aware communication scheduler and once with the naive
    fixed-delay model, and both schedules are replayed on the wormhole
    simulator's time-triggered runtime. The contention-aware schedule
    replays exactly; the fixed-delay schedule's transactions collide and
    deadlines are missed. *)

(** A miss is a task finishing more than 1e-6 past its deadline
    ({!Noc_sched.Metrics.misses}), the rule of the certifier and every
    other table. *)
type row = {
  seed : int;
  aware_planned_misses : int;
  aware_replay_misses : int;
  aware_max_deviation : float;
      (** Largest |replayed - planned| finish difference; 0 expected. *)
  fixed_planned_misses : int;
      (** Misses the naive scheduler believes it has (it is oblivious). *)
  fixed_replay_misses : int;
  fixed_max_lateness : float;
  fixed_link_waiting : float;
      (** Total time the naive schedule's transactions spent blocked. *)
}

val run : ?jobs:int -> ?seeds:int list -> unit -> row list
(** 120-task graphs at tightness 1.4 on the category platform; default
    seeds {0, 1, 2, 7, 8}. Seeds fan out over a {!Noc_util.Pool} of
    [jobs] domains; the rows are identical at every job count. *)

val render : row list -> string
