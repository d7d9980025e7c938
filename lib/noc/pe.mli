(** Processing elements of a heterogeneous tile-based NoC.

    The paper's per-task, per-PE costs live in the CTG (Definition 1); a
    PE descriptor here characterises the tile itself so that workload
    generators can derive correlated cost tables. Speed and power scale a
    task's nominal time/energy: a fast, energy-hungry CPU has a small
    [time_factor] and a large [power_factor], a low-power core the
    opposite. *)

type kind =
  | Risc_fast  (** High-performance, energy-hungry general-purpose CPU. *)
  | Risc_lowpower  (** Low-power embedded core (e.g. ARM-class). *)
  | Dsp  (** Digital signal processor: fast on signal kernels. *)
  | Accel  (** Fixed-function accelerator: very fast on matching kernels. *)

type t = {
  index : int;  (** Tile index in the platform (row-major). *)
  kind : kind;
  time_factor : float;  (** Multiplies nominal execution time; > 0. *)
  power_factor : float;  (** Multiplies nominal power; > 0. *)
}

val make : index:int -> kind:kind -> time_factor:float -> power_factor:float -> t
(** Raises [Invalid_argument] on non-positive factors. *)

val default_factors : kind -> float * float
(** Representative [(time_factor, power_factor)] pair for each kind:
    [Risc_fast] (0.55, 3.2), [Risc_lowpower] (1.9, 0.25), [Dsp] (1.0, 1.0),
    [Accel] (0.5, 1.9) — a wide speed/efficiency spread, the regime the
    paper's heterogeneity argument targets (e.g. PowerPC vs DSP vs ARM). *)

val of_kind : index:int -> kind -> t
(** A PE with {!default_factors}. *)

val all_kinds : kind array

val kind_name : kind -> string
