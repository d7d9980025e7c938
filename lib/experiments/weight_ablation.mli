(** Ablation of EAS Step 1's slack-weighting rule.

    The paper weights each task's slack share by [W = VAR_e * VAR_r] so
    that tasks whose placement matters most get the most deadline slack.
    This experiment replaces that rule with mean-time-proportional and
    uniform shares and re-runs EAS-base (no repair, to expose the raw
    effect of the budgets) on tight random benchmarks, reporting energy
    and deadline misses per scheme. *)

type row = {
  seed : int;
  per_scheme : (Noc_eas.Budget.weighting * Noc_sched.Metrics.t) list;
      (** Metrics of each scheme's EAS-base schedule, which passed
          {!Pipeline.gate}. *)
}

val run : ?jobs:int -> ?seeds:int list -> ?n_tasks:int -> unit -> row list
(** Tightness 2.3 (the category-II regime) on the category platform;
    defaults: seeds 0-5, 150 tasks. Seeds fan out over a
    {!Noc_util.Pool} of [jobs] domains; rows are identical at every job
    count. *)

val render : row list -> string
