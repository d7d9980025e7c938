(** EAS Step 1: budget slack allocation.

    Every task receives a weight [W_ti = VAR_ei * VAR_ri] — the product
    of the variances of its energy and execution time across PEs — so
    that tasks whose placement matters more get more slack. Path slack
    (deadline minus mean-execution path length) is distributed along each
    deadline-constrained path proportionally to these weights, yielding a
    budgeted deadline [BD_i] per task.

    The paper illustrates the computation on a chain (Fig. 2); this
    module generalises it to DAGs: a forward pass accumulates the
    mean-based earliest finish [asap] and the weight of the binding
    (argmax) predecessor path; a backward pass follows, from each task,
    the tightest reachable deadline (the successor chain minimising the
    latest allowed start [D - remaining_mean]), accumulating the
    remaining mean time and weight. On a chain this reproduces Fig. 2
    exactly. Tasks from which no deadline is reachable get an infinite
    budget. When every weight along a path is zero (perfectly homogeneous
    costs) the slack is distributed uniformly instead. *)

type weighting =
  | Variance_product  (** The paper's [W = VAR_e * VAR_r]. *)
  | Mean_time  (** Slack proportional to mean execution time. *)
  | Uniform  (** Equal slack shares — the ablation baseline. *)

type t = {
  mean_times : float array;  (** [M_ti] per task. *)
  weights : float array;  (** [W_ti] per task. *)
  asap : float array;  (** Mean-based earliest finish per task. *)
  budgeted_deadlines : float array;  (** [BD_i]; [infinity] if unconstrained. *)
}

val compute : ?weighting:weighting -> ?kernel:Kernel.t -> Noc_ctg.Ctg.t -> t
(** Default weighting: [Variance_product], as in the paper. The other
    schemes feed the slack-weighting ablation (see
    {!Noc_experiments.Weight_ablation}). With [kernel] the per-task
    means and variance-product weights are read from the prebuilt
    matrices instead of being re-derived — same floats either way. *)
