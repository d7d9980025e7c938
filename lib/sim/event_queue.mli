(** A minimal priority queue of timestamped events, in flat arrays.

    An event is an [int] payload at a [float] time; the caller encodes
    what it means. Events with equal timestamps are delivered in
    insertion order, which keeps the discrete-event simulation
    deterministic. *)

type t

val create : unit -> t

val is_empty : t -> bool

val push : t -> time:float -> int -> unit

val pop : t -> int
(** Removes the earliest event and returns its payload; {!time} then
    reads its timestamp. Raises [Invalid_argument] when empty. *)

val time : t -> float
(** The timestamp of the event the last {!pop} returned ([nan] before
    the first). *)
