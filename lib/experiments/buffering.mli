(** Validation of the paper's Eq. (1) approximation.

    Eq. (1) drops the congestion-coupled buffering energy [E_Bbit]; the
    paper justifies this by the cost of measuring it. We measure it with
    the wormhole executor: for contention-aware EAS schedules the
    payload never waits in buffers (E_B = 0 exactly), while the same
    scheduler under the fixed-delay model produces schedules whose
    replay buffers data on every seed — quantifying both the quality of
    the approximation for EAS and what it would miss for naive
    schedules. *)

type row = {
  seed : int;
  comm_energy : float;  (** Eq. (1) communication energy of the schedule. *)
  aware_buffer_energy : float;
  fixed_buffer_energy : float;
}

val run : ?seeds:int list -> unit -> row list
(** 120-task graphs at tightness 1.4 on the category platform (the
    contention-ablation setup); default seeds {0, 1, 2, 7, 8}. *)

val render : row list -> string
