(** Naive schedule-table model: the executable specification of
    {!Noc_util.Timeline}.

    This is the original sorted-list implementation, kept as a reference
    whose behaviour is obviously correct (every operation is a plain walk
    of an immutable sorted list). The qcheck differential tests replay
    random operation traces against this model and the indexed
    {!Noc_util.Timeline} and require them to agree
    observation-for-observation.
    Never use this in scheduler code — every operation is O(n). *)

type t

val create : unit -> t
val busy : t -> Noc_util.Interval.t list
val is_free : t -> Noc_util.Interval.t -> bool
val earliest_gap : t -> after:float -> duration:float -> float
val reserve : t -> Noc_util.Interval.t -> unit
val reserve_slot : t -> int -> starts:float array -> stops:float array -> int -> unit
val release_slot : t -> int -> starts:float array -> stops:float array -> int -> unit

val reserve_slots :
  t array -> ids:int array -> slots:int array -> starts:float array -> stops:float array ->
  int -> int -> int

val release_slots :
  t array -> ids:int array -> slots:int array -> starts:float array -> stops:float array ->
  int -> int -> int
(** {!Noc_util.Timeline}'s journal forms: {!reserve_slot} (or
    {!release_slot}) over a stretch, stopping at the first entry it
    rejects. *)

val utilisation : t -> horizon:float -> float
val span : t -> float
val merged_busy : t list -> after:float -> Noc_util.Interval.t list
val earliest_gap_multi : t list -> after:float -> duration:float -> float
val pp : Format.formatter -> t -> unit
