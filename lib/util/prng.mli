(** Deterministic pseudo-random number generator (SplitMix64).

    All randomised components of the library (workload generation, platform
    heterogeneity) draw from this generator so that every experiment is
    reproducible from a seed alone, independently of the OCaml [Random]
    module's global state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] draws uniformly from [0, bound). [bound] must be
    positive. *)

val int_in : t -> min:int -> max:int -> int
(** [int_in t ~min ~max] draws uniformly from the inclusive range
    [min, max]. Requires [min <= max]. *)

val float : t -> bound:float -> float
(** [float t ~bound] draws uniformly from [0, bound). [bound] must be
    positive and finite. *)

val float_in : t -> min:float -> max:float -> float
(** [float_in t ~min ~max] draws uniformly from [min, max). *)

val bool : t -> bool
(** Fair coin flip. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate via the Box-Muller transform. *)

val lognormal_factor : t -> sigma:float -> float
(** A multiplicative noise factor with median 1.0: [exp (gaussian 0 sigma)].
    Used to perturb execution times and energies. *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val sample_without_replacement : t -> k:int -> n:int -> int list
(** [sample_without_replacement t ~k ~n] returns [k] distinct indices drawn
    from [0, n), in increasing order. Requires [0 <= k <= n]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
