(** Static mapping objective with O(incident arcs) incremental deltas.

    The objective of a task-to-tile mapping [m] is the fixed-order sum
    of three term families, each a pure function of the mapping
    restricted to its own endpoints:

    - per task: the Eq.-3 computation energy [e_i^{m(i)}];
    - per arc: the Eq.-3 bit energy [v * ebit(m(src), m(dst))], plus
      [latency] times the contention-free transfer duration;
    - per tile: [balance] times the squared task count (an integer, so
      increments stay exact).

    With {!energy_only} weights the value is exactly the Eq.-3 energy
    of the mapping — schedule-independent, so it equals the
    {!Noc_sched.Metrics} energy of any schedule pinned to [m].

    A move touches only the mover's exec term, its incident arc terms
    and two tile counts; {!apply_move}/{!apply_swap} re-derive exactly
    those terms through the same code path {!full_value} uses, so the
    maintained {!value} is bit-identical to a from-scratch recompute
    after any move/swap sequence (the [test_map] qcheck law). *)

type weights = {
  latency : float;  (** Weight on per-arc contention-free durations. *)
  balance : float;  (** Weight on squared per-tile task counts. *)
}

val energy_only : weights
(** [{latency = 0.; balance = 0.}]: the pure Eq.-3 energy objective. *)

type tables
(** Per-(task, pe) and per-(src, dst) cost tables lifted from the flat
    kernel matrices; read-only and safe to share across domains. *)

val lift : ?weights:weights -> Noc_eas.Kernel.t -> tables
(** Lifts the scoring tables of the kernel's graph on its platform
    ({!Noc_eas.Kernel.ctg}, {!Noc_eas.Kernel.platform}) from its
    matrices ([weights] defaults to {!energy_only}). The kernel is not
    retained. *)

val mean_exec_energy : tables -> float
(** Mean of the (task, pe) energy matrix — the natural unit for scaling
    the dimensionless [balance] weight against Eq.-3 energies. *)

val full_value : tables -> int array -> float
(** Objective of a mapping, recomputed from scratch (the differential
    oracle; O(tasks + arcs + tiles)). *)

type state
(** A mapping plus its maintained term arrays. Not thread-safe. *)

val create : tables -> int array -> state
(** Copies the mapping. Raises [Invalid_argument] on a length mismatch
    or an out-of-range tile. *)

val mapping : state -> int array
(** Copy of the current mapping. *)

val tile_of : state -> int -> int
val count : state -> int -> int
(** Tasks currently mapped to the tile. *)

val value : state -> float
(** Fixed-order sum of the maintained terms; bit-identical to
    [full_value tables (mapping state)]. *)

val move_delta : state -> task:int -> to_:int -> float
(** Objective change of remapping [task] to [to_], in O(incident arcs).
    [0.] when [to_] is the task's current tile. *)

val apply_move : state -> task:int -> to_:int -> unit

val swap_delta : state -> a:int -> b:int -> float
(** Objective change of exchanging the tiles of [a] and [b]; tile
    counts are unchanged so the balance term never moves. *)

val apply_swap : state -> a:int -> b:int -> unit
