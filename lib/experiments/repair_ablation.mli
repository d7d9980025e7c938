(** Ablation of EAS Step 3's two move kinds.

    Search and repair combines local task swapping (LTS — free, cannot
    change energy) with global task migration (GTM — may cost energy).
    This experiment takes category-II benchmarks whose EAS-base schedule
    misses deadlines and repairs each with LTS only, GTM only, and the
    paper's combination, reporting remaining misses, energy change and
    the number of rebuilds. *)

type attempt = {
  moves : Noc_eas.Repair.moves;
  remaining_misses : int;
  energy_increase : float;  (** Relative to the EAS-base schedule. *)
  evaluations : int;
}

type row = { index : int; base_misses : int; attempts : attempt list }

val run : ?jobs:int -> ?indices:int list -> ?scale:float -> unit -> row list
(** Runs on the category-II suite (default indices 0-4, [scale] as in
    {!Random_suite.run}); rows only cover benchmarks whose base schedule
    actually misses deadlines. The base and every repaired schedule pass
    {!Pipeline.gate}. Benchmarks fan out over a
    {!Noc_util.Pool} of [jobs] domains; rows are identical at every job
    count. *)

val render : row list -> string
