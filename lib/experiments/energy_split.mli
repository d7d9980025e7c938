(** The in-text claim of Sec. 6.2: EAS's savings combine computation and
    communication energy reductions, the latter visible as a drop in the
    average hops per packet (paper: 2.55 to 1.68 on foreman). *)

type result = {
  clip : Noc_msb.Profile.clip;
  eas : Noc_sched.Metrics.t;
  edf : Noc_sched.Metrics.t;
}

val run : unit -> result
(** Integrated MSB on the 3x3 platform, clip foreman. *)

val render : result -> string
