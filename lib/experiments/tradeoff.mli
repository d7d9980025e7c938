(** Figure 7: energy vs. performance trade-off.

    Starting from the integrated MSB application at 40 encoded and 67
    decoded frames per second, the required rates are scaled by a
    unified performance ratio; as the ratio grows the EAS schedule is
    forced away from the energy-optimal placement and its energy rises,
    while the (already performance-greedy) EDF schedule stays flat and
    above. *)

type point = {
  ratio : float;
  eas : Pipeline.t;
  edf : Pipeline.t;
}

val run : ?ratios:float list -> unit -> point list
(** Defaults: ratios 1.0 to 1.8 in steps of 0.1, foreman. *)

val render : point list -> string
