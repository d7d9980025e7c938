(** Degraded platform view: fault-aware routing and PE masking.

    Wraps a {!Platform.t} with a set of failed PEs (which can no longer
    execute tasks) and failed directed links (which can no longer carry
    flits). Routers of failed PEs keep routing, so only links disappear
    from the routing graph.

    Routes keep the platform's canonical route wherever it survives.
    On platforms with an adaptive turn model ({!Platform.routing}),
    detours are searched inside the model's turn-legal walk set first —
    a BFS over (node, entry-direction) states whose transitions are the
    permitted turns — so the degraded route set stays deadlock-free by
    the turn-model theorem (possibly at the cost of extra hops). Only
    when no turn-legal route survives, or on XY platforms (whose turn
    rules admit a single route per pair), does the view fall back to
    the unrestricted deterministic minimal BFS detour (smallest-index
    parent, the honeycomb tie-break) — which carries no deadlock
    guarantee and is what {!Noc_analysis.Deadlock} flags. Parent
    tables and per-[(src, dst)] routes are memoised in the view, so
    repeated probes cost one array read — the fault-set-keyed analogue
    of {!Platform.route}'s memo table. *)

type t

val make :
  Platform.t -> failed_pes:int list -> failed_links:Routing.link list -> t
(** Raises [Invalid_argument] on out-of-range PEs or link endpoints.
    Failed links are directed: failing [a -> b] leaves [b -> a] up. *)

val platform : t -> Platform.t
val pe_alive : t -> int -> bool
val alive_pes : t -> int list

val is_trivial : t -> bool
(** True when nothing is failed: every query then mirrors the platform. *)

val reachable : t -> src:int -> dst:int -> bool

val route : t -> src:int -> dst:int -> int list
(** Routers visited over the degraded fabric. Raises [Invalid_argument]
    when the fault set disconnects the pair; see {!route_opt}. *)

val route_opt : t -> src:int -> dst:int -> int list option
val route_links : t -> src:int -> dst:int -> Routing.link list
val hops : t -> src:int -> dst:int -> int

val comm_duration : t -> src:int -> dst:int -> bits:float -> float
(** {!Platform.route_duration} over the degraded route: detours pay
    their extra router hops. *)

val comm_energy : t -> src:int -> dst:int -> bits:float -> float

val route_valid : t -> int list -> bool
(** Whether a recorded route is a walk over surviving links: every
    consecutive pair adjacent in the topology and no failed link used. *)

