(** Turn-model routing functions as route relations.

    A turn model (Glass & Ni 1992) proves deadlock-freedom by
    prohibiting a minimal set of turns: every route that uses only
    permitted turns is free of circular channel waits, minimal or not.
    Three members are implemented:

    - [Xy] — dimension order, both y-to-x turns prohibited. The
      degenerate single-route case; identical to {!Routing.route} on
      meshes and tori.
    - [West_first] — a packet takes all its west hops first and never
      turns back west; east/north/south are fully adaptive afterwards.
    - [Odd_even] — Chiu's odd-even model (2000): EN/ES turns prohibited
      at even columns, NW/SW turns prohibited at odd columns. More
      evenly adaptive than west-first (no direction is fully greedy).

    The routing function is exposed as a relation ([next_hops]
    enumerates every admissible minimal hop) so the analyzer can build
    a channel-dependency graph covering all routes an adaptive router
    could take, and as a predicate ([turn_legal]) so degraded-fabric
    detour search can stay inside the proven-safe set on non-minimal
    paths too. *)

type t = Xy | West_first | Odd_even

val name : t -> string
(** ["xy"], ["west-first"], ["odd-even"] — the CLI spelling. *)

val of_string : string -> (t, string) result
(** Parses {!name} spellings (case-insensitive; ["wf"] / ["oe"] and the
    hyphen-less forms are accepted). *)

val is_adaptive : t -> bool
(** [false] only for [Xy], whose relation is single-valued. *)

val supports : t -> Topology.t -> bool
(** Whether the turn model is defined on [topo]. The adaptive models
    are mesh-only (torus wraparounds re-introduce the ring cycles the
    prohibitions break); [Xy] covers meshes and tori. Honeycombs have
    no dimension-order geometry and support no turn model. *)

val next_hops : t -> Topology.t -> src:int -> node:int -> dst:int -> int list
(** Admissible minimal next hops at [node] when routing [src] -> [dst],
    sorted ascending by tile index; [[]] exactly when [node = dst].
    Only odd-even consults [src] (Chiu's ROUTE allows the eastbound
    vertical move in the source column regardless of its parity).
    Raises [Invalid_argument] when {!supports} is false. *)

val turn_legal : t -> Topology.t -> prev:int -> via:int -> next:int -> bool
(** Whether the turn taken at [via] — arriving from [prev], leaving to
    [next] — is permitted by the model. 180-degree turns are always
    prohibited. The predicate is source-independent and accepts
    non-minimal moves: any walk all of whose turns are legal is
    deadlock-free by the turn-model theorem. Raises [Invalid_argument]
    unless both pairs are grid neighbours. *)

val route : t -> Topology.t -> src:int -> dst:int -> int list
(** Canonical deterministic route: at every node the smallest
    admissible tile index. For [Xy] this is exactly
    {!Routing.xy_route}. *)

val pp : Format.formatter -> t -> unit
