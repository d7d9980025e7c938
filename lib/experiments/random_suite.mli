(** Figures 5 and 6: EAS-base / EAS / EDF on the random benchmark
    suites.

    The paper plots, for each of the 10 TGFF benchmarks of a category,
    the energy of the three schedules, and reports that EDF consumes on
    average 55% (category I) and 39% (category II) more energy than EAS;
    EAS-base misses deadlines on a few benchmarks and the search-and-
    repair step fixes all of them with negligible energy increase but a
    higher run time. *)

type row = {
  index : int;
  eas_base : Pipeline.t;
  eas : Pipeline.t;
  edf : Pipeline.t;
}

type result = {
  kind : Noc_tgff.Category.kind;
  rows : row list;
  average_edf_excess : float;
      (** Mean of [edf_energy / eas_energy - 1] over the suite. *)
}

val run :
  ?jobs:int -> ?indices:int list -> ?scale:float -> Noc_tgff.Category.kind -> result
(** [run kind] evaluates the full suite (indices 0-9) at the paper's
    size. [scale] shrinks the graphs (same regime) for quick runs;
    [indices] restricts the benchmarks evaluated. Every schedule passes
    {!Pipeline.gate}. Benchmarks are
    evaluated on a {!Noc_util.Pool} of [jobs] domains (default
    {!Noc_util.Pool.default_jobs}); the result is identical at every job
    count. *)

val render : result -> string
