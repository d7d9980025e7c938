(** Extended baseline comparison.

    Places EAS between the two schools the paper cites: the
    performance-maximising comm-aware heuristics (EDF, and Sih & Lee's
    DLS, the paper's reference [10]) and a deadline-oblivious
    energy-greedy mapper that approximates the energy lower bound. The
    expected shape: EAS's energy approaches the greedy bound while being
    the only scheduler that both respects deadlines and stays near it;
    the performance schedulers pay 1.5-2x energy for their speed. *)

type entry = {
  scheduler : string;
  energy : float;
  makespan : float;
  misses : int;
}

type row = { name : string; entries : entry list }

val run : ?jobs:int -> ?seeds:int list -> unit -> row list
(** Three MSB systems (foreman) plus TGFF benchmarks for the given
    seeds (default {0, 1, 2}, 120 tasks). Every schedule passes
    {!Pipeline.gate}. Benchmarks fan out over a
    {!Noc_util.Pool} of [jobs] domains; rows are identical at every job
    count. *)

val render : row list -> string
