(** Computation tasks of a Communication Task Graph (paper Definition 1).

    A task carries per-PE execution times [R_i] and energies [E_i]: element
    [j] gives the cost of running the task on PE [j] of the target
    architecture, reflecting PE heterogeneity. The optional deadline is the
    absolute time by which the task must finish. *)

type t = {
  id : int;  (** Position of the task in its graph; dense from 0. *)
  name : string;
  exec_times : float array;  (** [R_i]: execution time on each PE; > 0. *)
  energies : float array;  (** [E_i]: energy (nJ) on each PE; >= 0. *)
  release : float option;
      (** Earliest start time (e.g. the frame arrival in a periodic
          unrolling); [None] means available from time 0. *)
  deadline : float option;  (** [d(t_i)]: absolute finish deadline. *)
}

val make :
  id:int ->
  ?name:string ->
  exec_times:float array ->
  energies:float array ->
  ?release:float ->
  ?deadline:float ->
  unit ->
  t
(** Builds a task. Raises [Invalid_argument] when the arrays are empty, of
    different lengths, or contain non-positive times / negative energies,
    when the deadline is non-positive, the release negative, or the
    release at or after the deadline. The default name is ["t<id>"]. *)

val n_pes : t -> int
(** Length of the cost arrays. *)

val mean_exec_time : t -> float
(** [M_ti] of the paper: mean execution time across PEs. *)

val exec_time_variance : t -> float
(** [VAR_ri]: population variance of the execution times. *)

val weight : t -> float
(** [W_ti = VAR_ei * VAR_ri], the slack-budgeting weight of EAS Step 1.
    Tasks whose placement matters more (high spread in both energy and
    time) receive more slack. *)
