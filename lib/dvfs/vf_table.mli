(** Discrete per-PE frequency/voltage ladder.

    Levels are normalised frequency ratios r = f/f_max in (0, 1], sorted
    descending with level 0 pinned at 1.0 (f_max). Under the classical
    DVFS model the supply voltage scales linearly with frequency
    (v/V_max = f/f_max), so dynamic power is P(f) = k·f·v² = k·f³ and a
    task slowed linearly to duration t_max·(f_max/f) dissipates

      E(f) = P(f)·t = k·f³·t_max·f_max/f = E_max·(f/f_max)²

    — at level 0 this is exactly the Eq.-3 task-energy term the rest of
    the system already uses, which is the energy-equivalence anchor:
    {!energy_scale} at level 0 is 1 and the model degenerates to the
    unscaled scheduler. *)

type t

val default : t
(** {1.0, 0.8, 0.6, 0.5} × f_max. *)

val of_ratios : float array -> (t, string) result
(** Ratios in any order; validated (finite, in (0, 1], no duplicates,
    must include 1.0 so level 0 is f_max) and sorted descending. *)

val of_string : string -> (t, string) result
(** Parses a comma-separated ratio list, e.g. ["1,0.8,0.6,0.5"]; blanks
    around a ratio are ignored. A malformed token is named with its
    line and column ([line 1, col 3: level "x" is not a number]); the
    CLI surfaces errors verbatim through [--vf-levels]. *)

val to_string : t -> string
(** Canonical comma-separated form; [of_string (to_string t)] is [t]. *)

val hex : t -> string
(** Canonical bit-exact serialisation (comma-separated hexadecimal
    floats, {!Noc_util.Scan.add_hex_float}) — the digest preimage for
    serve cache keys. *)

val n_levels : t -> int
val ratio : t -> level:int -> float
val ratios : t -> float array
(** A fresh copy of the descending ratio ladder. *)

val slowdown : t -> level:int -> float
(** f_max/f = 1/r: the factor a task's duration grows by. *)

val energy_scale : t -> level:int -> float
(** (f/f_max)² = r²: the factor its dynamic energy shrinks by. *)

val pp : Format.formatter -> t -> unit
