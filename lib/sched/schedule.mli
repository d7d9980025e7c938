(** Static schedules: the output of the problem of Sec. 4.

    A schedule fixes, for every task, the PE it runs on and its execution
    window, and for every dependence arc, the communication transaction
    that realises it: the route through the network and the window during
    which the transaction occupies every link of that route (the
    whole-path reservation used by the paper's wormhole model, Fig. 3).
    Arcs between tasks on the same tile need no network resources and are
    recorded with an empty link set and a zero-length window at the
    sender's finish time. *)

type placement = {
  task : int;
  pe : int;
  start : float;
  finish : float;
}

type transaction = {
  edge : int;
  src_pe : int;
  dst_pe : int;
  route : int list;  (** Routers visited; [[p]] when [src_pe = dst_pe = p]. *)
  start : float;
  finish : float;  (** Arrival time; data is available to the consumer. *)
}

type t

val make : placements:placement array -> transactions:transaction array -> t
(** [placements.(i)] must describe task [i] and [transactions.(e)] edge
    [e] (checked). Deeper semantic checks belong to {!Validate}. *)

val placement : t -> int -> placement
(** Placement of a task id. *)

val transaction : t -> int -> transaction
(** Transaction of an edge id. *)

val placements : t -> placement array
val transactions : t -> transaction array
val n_tasks : t -> int

val makespan : t -> float
(** Latest task finish time. *)

val tasks_on_pe : t -> pe:int -> placement list
(** Placements on one PE sorted by start time. *)

val links_of_transaction : transaction -> Noc_noc.Routing.link list
(** The directed links the transaction reserves; empty for same-tile
    arcs. *)

