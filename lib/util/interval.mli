(** Half-open time intervals [start, stop).

    The scheduling substrate represents every busy slot of a processing
    element or a network link as such an interval. Zero-length intervals
    ([start = stop]) are permitted and overlap nothing. *)

type t = private { start : float; stop : float }

val make : start:float -> stop:float -> t
(** [make ~start ~stop] builds an interval. Requires [start <= stop] and
    both bounds finite. *)

val is_empty : t -> bool
(** True when [start = stop]. *)

val overlaps : t -> t -> bool
(** [overlaps a b] is true when the open intersection of [a] and [b] is
    non-empty. Touching intervals ([a.stop = b.start]) do not overlap, and
    empty intervals overlap nothing. *)

val merge : t -> t -> t
(** Smallest interval covering both arguments. *)

val compare_start : t -> t -> int
(** Order by [start], then by [stop]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
