(** Quality metrics of a schedule.

    Energy follows the paper's Eq. (3):
    [energy = sum_i e_i^{M(t_i)} + sum_{c_ij} v(c_ij) * e(r_{M(ti),M(tj)})]
    — the computation energy of every task on its assigned PE plus the
    bit-energy of every transaction over its route. *)

type t = {
  total_energy : float;  (** nJ, Eq. (3). *)
  computation_energy : float;
  communication_energy : float;
  makespan : float;
  deadline_misses : (int * float) list;
      (** Tasks finishing after their deadline, with lateness; sorted by
          task id. *)
  average_hops : float;
      (** Mean [n_hops] over data-carrying edges (volume > 0); same-tile
          transfers count 0 hops. The paper reports this as "average hops
          per packet". [0.] when the graph carries no data. *)
}

val compute : Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> Schedule.t -> t

val misses : Noc_ctg.Ctg.t -> Schedule.t -> (int * float) list
(** [misses ctg s] is {!compute}'s [deadline_misses]: every task whose
    finish exceeds its deadline by more than 1e-6, with its lateness
    [finish - deadline], sorted by task id. The certifier
    ([Noc_analysis.Certify], default tolerance 1e-6) and every report
    count a miss by this rule. *)

val miss_count : t -> int

val energy_of_assignment : Noc_noc.Platform.t -> Noc_ctg.Ctg.t -> (int -> int) -> float
(** Eq. (3) evaluated on a bare task-to-PE mapping, without timing: the
    energy of a schedule depends only on the assignment, which this
    computes directly. The repair procedure does not call it; it prices
    migrations through the EAS kernel ([Noc_eas.Repair.move_energy]). The
    metamorphic and metrics tests check it against {!compute}. *)

val pp : Format.formatter -> t -> unit
