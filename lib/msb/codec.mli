(** Shared machinery for building codec task graphs.

    Each codec stage has a nominal execution time (microseconds on a
    reference DSP), a nominal power (nJ per microsecond on the reference)
    and an affinity class describing which PE kinds execute it
    efficiently. The per-PE cost tables of a task are derived from these
    plus the platform's PE descriptors and the clip profile. *)

type affinity =
  | Control  (** Parsing, multiplexing, rate control: best on RISCs. *)
  | Signal  (** Filter banks, transforms: best on DSPs. *)
  | Media  (** Pixel kernels (motion estimation, IDCT): best on
               accelerators, good on DSPs. *)

type builder

val create : Noc_noc.Platform.t -> profile:Profile.t -> builder

val stage :
  builder ->
  name:string ->
  base_time:float ->
  affinity:affinity ->
  ?deadline:float ->
  unit ->
  int
(** Adds a stage task drawing 12 nJ/us on a nominal PE and returns its
    id. *)

val flow : builder -> src:int -> dst:int -> kbits:float -> unit
(** Adds a data dependence carrying [kbits * 1000 * volume_scale]
    bits. *)

val control : builder -> src:int -> dst:int -> unit
(** Adds a zero-volume control dependence. *)

val finish : builder -> Noc_ctg.Ctg.t
