(** A minimal priority queue of timestamped events.

    Events with equal timestamps are delivered in insertion order, which
    keeps the discrete-event simulation deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Earliest event, or [None] when empty. *)
