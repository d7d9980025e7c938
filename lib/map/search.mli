(** Seeded simulated-annealing search over task-to-tile mappings.

    K independent chains anneal over the {!Objective} incremental
    evaluator, fanned out on {!Noc_util.Pool}; chain [c]'s PRNG stream
    is the [c]-th split of a master seeded by [seed], so results are
    bit-identical at every job count and a K-chain run's first J chains
    match a J-chain run exactly. Chain 0 starts from the identity
    mapping (task [i] on tile [i mod n_pes]) with best-so-far tracking,
    so under the pure-energy objective the search can never lose to the
    identity. The best-[survivors] chains — plus the identity, always —
    get a full pinned EAS schedule ({!Noc_eas.Eas.schedule} with
    [~pinned]) and an independent {!Noc_analysis.Certify} pass; the
    winner minimises (deadline misses, Eq.-3 energy, position). *)

type params = {
  chains : int;  (** Independent SA chains (>= 1). *)
  iters : int;  (** Proposed moves per chain. *)
  survivors : int;  (** Best-K chains that get a full EAS evaluation. *)
  seed : int;
  weights : Objective.weights;
  capacity : int option;
      (** Max tasks per tile ([None]: 1.25x the mean, >= 1). Keeps the
          pure-energy objective from folding the graph onto one tile. *)
  t0_frac : float;  (** Initial temperature over initial value. *)
  t_end_frac : float;  (** Final temperature over initial value. *)
}

val default_params : params
(** 4 chains, 20k iterations, 2 survivors, seed 0, energy-only
    weights, default capacity. *)

type origin = Identity | Chain of int

type candidate = {
  origin : origin;
  mapping : int array;
  static_value : float;  (** {!Objective} value of the mapping. *)
  energy : float;  (** Eq.-3 total of the pinned EAS schedule. *)
  makespan : float;
  misses : int;
  cert_errors : int;  (** Error-severity {!Noc_analysis.Certify} rules. *)
  schedule : Noc_sched.Schedule.t;
  stats : Noc_eas.Eas.stats;
}

type chain_result = {
  chain : int;
  value : float;  (** Best objective seen, recomputed from scratch. *)
  accepted : int;
  best_mapping : int array;
}

type result = {
  search_params : params;
  chain_results : chain_result list;  (** In chain order. *)
  candidates : candidate list;  (** Survivors by value, then identity. *)
  winner : candidate;
}

val identity_mapping : n_tasks:int -> n_pes:int -> int array

val run : ?jobs:int -> ?params:params -> Noc_eas.Kernel.t -> result
(** Searches mappings of the kernel's graph onto its platform
    ({!Noc_eas.Kernel.ctg}, {!Noc_eas.Kernel.platform}). The kernel is
    shared read-only by the scoring tables, all chains and every
    survivor evaluation. [jobs] sizes the pool the chains fan out on. *)

val origin_name : origin -> string
val pp_result : Format.formatter -> result -> unit
