(** Topology extension study (the paper's Sec. 7) and the big-mesh
    mapping Pareto sweep.

    The paper notes EAS only requires a regular topology with
    deterministic routing and names the honeycomb as an example where
    [E_bit] is no longer determined by Manhattan distance. We schedule
    the same applications over a mesh, a torus and a honeycomb carrying
    identical PE arrays and compare energy — communication energy and
    average hop counts track each topology's route lengths, while
    computation energy stays put.

    {!pareto} goes past the paper's 4x4 scale: category-III graphs
    (~2000 tasks, {!Noc_tgff.Category}) on 8x8 and 16x16 meshes, with
    the annealed mapping search ([Noc_map.Search]) run once per
    balance-weight setting. Each weight trades Eq.-3 energy against
    makespan, so the resulting points sketch the energy/latency front
    reachable by placement alone; the identity mapping is the
    naive-placement reference, and at weight 0 the annealed point can
    never cost more energy than it. *)

type row = {
  topology : Noc_noc.Topology.t;
  eas : Pipeline.t;
  edf : Pipeline.t;
  mapped : Pipeline.t option;
      (** Pinned-EAS evaluation of the mapping-search winner; [None]
          unless [map_search] was set. *)
}

type result = { n_tasks : int; rows : row list }

val run :
  ?jobs:int -> ?n_tasks:int -> ?map_search:bool -> unit -> result
(** Generator seed 0; defaults: 120 tasks, 4x4-sized topologies, no
    mapping search. Topologies fan out over a {!Noc_util.Pool} of [jobs]
    domains; rows are identical at every job count. With
    [map_search:true] each row also anneals a task-to-tile mapping
    (default [Noc_map.Search] parameters) and reports the winner's
    pinned-EAS evaluation. *)

val render : result -> string

(** {1 Big-mesh Pareto sweep} *)

type point = {
  label : string;  (** ["identity"] or ["sa/balance=<frac>"]. *)
  balance_frac : float;
      (** Balance weight in units of the mean (task, PE) energy. *)
  static_value : float;
  energy : float;  (** Pinned-EAS Eq.-3 total (nJ). *)
  makespan : float;
  misses : int;
  cert_errors : int;
}

type pareto_row = {
  mesh : int * int;
  pareto_n_tasks : int;
  n_edges : int;
  points : point list;  (** Identity first, then one point per weight. *)
}

type pareto = { scale : float; rows : pareto_row list }

val pareto :
  ?jobs:int -> ?meshes:(int * int) list -> ?scale:float -> unit -> pareto
(** Runs the sweep on category-III benchmark 1 of each mesh (default
    8x8 and 16x16), one annealed search per balance weight (0, 0.1, 0.5
    and 2: pure energy, then increasing load-spread pressure; fanned out
    over [jobs]; one shared kernel per mesh), [scale] (default 1)
    shrinking the graph for quick runs. Deterministic in every argument
    and bit-identical at every job count. *)

val render_pareto : pareto -> string
