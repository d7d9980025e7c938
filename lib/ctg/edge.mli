(** Dependence arcs of a Communication Task Graph.

    An arc [c_{i,j}] says task [dst] cannot start before task [src] has
    finished and, when [volume > 0], before [volume] bits produced by
    [src] have been delivered to [dst]'s PE. A zero volume models a pure
    control dependency. *)

type t = {
  id : int;  (** Position of the edge in its graph; dense from 0. *)
  src : int;  (** Producer task id. *)
  dst : int;  (** Consumer task id. *)
  volume : float;  (** [v(c_{i,j})], bits; >= 0. *)
}

val make : id:int -> src:int -> dst:int -> volume:float -> t
(** Raises [Invalid_argument] on negative volume, negative endpoints or a
    self-loop. *)
