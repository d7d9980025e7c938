(** Small numeric helpers shared across the library. *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val variance : float array -> float
(** Population variance (the paper's [VAR] over the PE set is over the
    whole population of PEs, not a sample). Requires a non-empty array. *)

val stddev : float array -> float

val min_value : float array -> float
val max_value : float array -> float

val argmin : float array -> int
(** Index of the smallest element (smallest index on ties). *)

val sum : float array -> float

val percentile : float array -> p:float -> float
(** [percentile arr ~p] for [p] in [[0, 100]]: linear interpolation
    between the closest ranks of a sorted copy, so [~p:0.] is the
    minimum, [~p:100.] the maximum, and [~p] is monotone. Requires a
    non-empty array; raises [Invalid_argument] outside [[0, 100]]. *)

val percentile_sorted : float array -> p:float -> float
(** As {!percentile} but the array must already be sorted ascending;
    no copy is taken. *)

val median : float array -> float
(** [percentile ~p:50.]; the mean of the two middle elements on even
    lengths. Requires a non-empty array. *)

val fequal : ?eps:float -> float -> float -> bool
(** Approximate float equality: absolute or relative difference below
    [eps] (default [1e-9]). *)
