(** Incremental construction of Communication Task Graphs.

    The builder assigns ids in insertion order and defers validation to
    {!build_exn}, which delegates to {!Ctg.make}. *)

type t

val create : n_pes:int -> t
(** A builder for graphs targeting an architecture with [n_pes] PEs. *)

val add_task :
  t ->
  ?name:string ->
  exec_times:float array ->
  energies:float array ->
  ?deadline:float ->
  unit ->
  int
(** Appends a task and returns its id. Cost arrays must have [n_pes]
    elements (checked immediately). *)

val add_uniform_task :
  t -> time:float -> energy:float -> ?deadline:float -> unit -> int
(** Appends a task with identical cost on every PE — convenient for tests
    on homogeneous platforms. *)

val connect : t -> src:int -> dst:int -> volume:float -> unit
(** Appends a dependence arc. *)

val build_exn : t -> Ctg.t
(** The graph, or [Invalid_argument] with {!Ctg.make}'s error. *)
