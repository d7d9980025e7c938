(** Sets of platform faults: the unit the simulator, the degraded
    rescheduler and the Monte-Carlo campaigns operate on.

    A set is canonical (sorted, deduplicated), so equal fault sets have
    equal {!key}s; the key doubles as the memoisation key for degraded
    platform views. *)

type t

val empty : t
val is_empty : t -> bool
val of_list : Fault.t list -> t
val cardinal : t -> int

val of_strings : string list -> (t, string) result
(** Parses a list of CLI fault specs (see {!Fault.of_string}). *)

val check : Noc_noc.Platform.t -> t -> (t, string) result
(** [Ok t] when every fault names an element of the platform: a PE
    index below its PE count, a link between neighbouring tiles.
    Otherwise [Error] naming the first fault (in the set's canonical
    order) that does not. *)

val key : t -> string
(** Canonical text form: the faults' {!Fault.to_string}s joined by
    commas. Equal sets have equal keys. *)

val pp : Format.formatter -> t -> unit

(** {1 Point-in-time queries} *)

val pe_failed_at : t -> pe:int -> time:float -> bool
val link_failed_at : t -> link:Noc_noc.Routing.link -> time:float -> bool
val route_failed_at : t -> links:Noc_noc.Routing.link list -> time:float -> bool

(** {1 Whole-horizon queries (conservative rescheduling view)} *)

val failed_pes : t -> int list
(** PEs failed at {e any} time, sorted. *)

val failed_links : t -> Noc_noc.Routing.link list

val boundaries : t -> float list
(** The finite window edges (fault onsets and recoveries), sorted and
    deduplicated — the instants at which a simulator must re-examine
    stalled work. *)

val degraded : t -> Noc_noc.Platform.t -> Noc_noc.Degraded.t
(** The degraded view masking every element that ever fails. Memoised
    per (set, platform): repeated calls return the same view, whose own
    route tables are filled on demand. *)

val sample :
  seed:int ->
  platform:Noc_noc.Platform.t ->
  ?n_link_faults:int ->
  ?n_pe_faults:int ->
  ?horizon:float ->
  unit ->
  t
(** Deterministic random fault set for Monte-Carlo campaigns: distinct
    PEs and links drawn uniformly (defaults: one of each), each failing
    either transiently (probability 1/2, window inside [horizon]) or
    permanently from a random onset. Equal arguments give equal sets.
    Raises [Invalid_argument] when asked to fail every PE. *)
