(** Monte-Carlo fault campaign: survivability of EAS and EDF schedules
    under seeded random fault sets.

    For each scaled category-I benchmark and each sampled fault set
    (one PE fault plus one link fault, permanent or transient,
    {!Noc_fault.Fault_set.sample}), two responses are compared under the
    fault-aware simulator:

    - {b naive}: keep executing the fault-free schedule — tasks on the
      failed PE are lost, transactions stall on the failed link;
    - {b rescheduled}: run {!Noc_eas.Fault_resched} and replay its
      degraded-platform schedule under the same faults.

    A schedule {e survives} a fault set when its replay finishes every
    task and misses no deadline. The campaign is fully deterministic:
    trial [t] of graph [g] uses fault seed [100 g + t]. *)

type replay = { misses : int; lost : int }

type algo_trial = {
  naive : replay;
  resched : replay option;
      (** [None] when the fault set made the graph unschedulable.
          Otherwise the rescheduled schedule passed {!Pipeline.gate}
          (deadline misses excluded: those are the survivability metric
          itself). *)
  migrated : int;
  rerouted : int;
}

type trial = {
  graph : int;
  seed : int;
  faults : string;  (** {!Noc_fault.Fault_set.key} of the sampled set. *)
  cyclic_cdg : bool;
      (** The degraded BFS detour route set has a cyclic
          channel-dependency graph, i.e. it is deadlock-prone under
          wormhole switching ({!Noc_analysis.Deadlock}). *)
  eas : algo_trial;
  edf : algo_trial;
}

type summary = {
  algo : Runner.algo;
  trials : int;
  naive_survived : int;
  resched_survived : int;
  total_migrated : int;
  total_rerouted : int;
}

type result = {
  scale : float;
  trials : trial list;
  summaries : summary list;
  cyclic_routesets : int;  (** Trials whose detour-route CDG is cyclic. *)
}

val run :
  ?jobs:int -> ?scale:float -> ?n_graphs:int -> ?n_trials:int -> unit -> result
(** Defaults: 3 graphs at scale 0.12 (~60 tasks), 4 fault sets each.
    Every fault-free schedule and every reschedule passes
    {!Pipeline.gate}. Schedule construction fans out per graph and
    replay per trial on a
    {!Noc_util.Pool} of [jobs] domains; the result (and its JSON form)
    is identical at every job count. *)

val render : result -> string
val to_json : result -> Noc_obs.Json.t
(** Machine-readable form (schema [nocsched/bench-faults/v2]) persisted
    as [BENCH_faults.json]. *)
