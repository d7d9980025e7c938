(** Communication Task Graphs (paper Definition 1).

    A CTG is a directed acyclic graph whose vertices are {!Task.t} values
    (computational modules with per-PE costs and optional deadlines) and
    whose arcs are {!Edge.t} values (control or data dependencies with a
    communication volume in bits). *)

type t

val make : tasks:Task.t array -> edges:Edge.t array -> (t, string) result
(** Validates and builds a graph. Checks performed: task ids are dense and
    in position; all tasks agree on the PE count; edge ids are dense and in
    position; edge endpoints are valid task ids; no duplicate arcs; the
    graph is acyclic; at least one task exists. *)

val make_exn : tasks:Task.t array -> edges:Edge.t array -> t
(** Like {!make} but raises [Invalid_argument] with the error message. *)

val n_tasks : t -> int
val n_edges : t -> int
val n_pes : t -> int

val task : t -> int -> Task.t
val edge : t -> int -> Edge.t
val tasks : t -> Task.t array
val edges : t -> Edge.t array

val in_edges : t -> int -> Edge.t list
(** Arcs entering the task, in increasing edge-id order. *)

val out_edges : t -> int -> Edge.t list
val preds : t -> int -> int list
val succs : t -> int -> int list

val sources : t -> int list
(** Tasks without predecessors. *)

val sinks : t -> int list
(** Tasks without successors. *)

val topological_order : t -> int array
(** A deterministic topological order of task ids. *)

val total_volume : t -> float
(** Sum of all edge volumes (bits). *)

val deadline_tasks : t -> int list
(** Tasks carrying an explicit deadline. *)

val mean_critical_path : t -> float
(** Longest path length where each task costs its mean execution time
    (communication ignored). A coarse lower-ish bound used for deadline
    assignment and reporting. *)

val min_critical_path : t -> float
(** Same with each task's fastest execution time: a true lower bound on
    the makespan of any schedule (communication ignored). *)

val min_load_bound : t -> float
(** [sum_i min_k r_i^k / n_pes]: the perfectly-balanced computation lower
    bound on the makespan. *)

val digest : t -> string
(** Stable content digest: FNV-1a ({!Noc_util.Fnv}) over a canonical
    serialization of the graph — per-PE cost arrays, releases and
    deadlines in task-id order, then the arcs in edge-id order, all
    floats rendered exactly ({!Noc_util.Scan.add_hex_float}). Task
    names do not participate. The declaration order of edges does:
    the communication scheduler breaks ties between a task's incoming
    transactions by edge id, so two graphs that differ only in it can
    get different schedules. Any change to a cost, window or volume
    changes the digest. Used as the CTG component of the serve
    daemon's cache keys. *)

val pp : Format.formatter -> t -> unit
(** One-line summary (task/edge counts, PE count). *)

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering for debugging and documentation. *)
