(** EAS vs EAS+DVFS ablation (the [dvfs] campaign).

    Schedules the category I/II random suites and the MSB A/V
    benchmarks with EAS, runs {!Noc_dvfs.Reclaim} over each committed
    schedule, and re-certifies every scaled schedule with
    {!Noc_analysis.Certify.check_scaled}. Work items are a fixed list
    fanned over the domain pool, so results are bit-identical at every
    [--jobs] count. *)

type row = {
  name : string;
  category : string;  (** [cat1], [cat2] or [msb] *)
  tasks : int;
  eas_energy : float;  (** unscaled Eq.-3 total *)
  dvfs_energy : float;  (** total after slack reclamation *)
  reclaimed : float;  (** [eas_energy - dvfs_energy], nJ *)
  downclocked : int;
  base_misses : int;
  scaled_misses : int;
  certified : bool;  (** {!Noc_analysis.Certify.check_scaled} finds no error *)
}

val run :
  ?jobs:int ->
  ?indices:int list ->
  ?scale:float ->
  unit ->
  row list
(** Every row reclaims on {!Noc_dvfs.Vf_table.default}. [indices]
    selects the category benchmarks (default 0-9, the full paper
    suites); [scale < 1] shrinks the generated graphs for quick runs
    (the MSB rows are small and always run full-size). *)

val render : row list -> string
