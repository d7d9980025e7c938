(** Target platforms: the paper's Architecture Characterization Graph.

    A platform combines a topology, one heterogeneous PE per tile, the
    bit-energy model, and a uniform link bandwidth. It provides exactly
    the two per-route metrics of Definition 2: [e(r_{i,j})] (average
    energy per bit between two PEs, from Eq. 2) and [b(r_{i,j})] (route
    bandwidth, uniform here since wormhole routing pipelines flits over
    identical links). *)

type t

val make :
  topology:Topology.t ->
  pes:Pe.t array ->
  ?energy:Energy_model.t ->
  ?link_bandwidth:float ->
  ?router_latency:float ->
  ?routing:Turn_model.t ->
  unit ->
  t
(** [make ~topology ~pes ()] builds a platform. [pes] must contain one
    descriptor per tile, at its own index. [link_bandwidth] is in bits
    per time unit and defaults to [3200.] (a 32-bit channel at one flit
    per cycle with the microsecond as time unit and a 100 MHz clock).
    [router_latency] (default [0.]) is the per-router head-flit pipeline
    delay added once per intermediate hop to every transaction's
    duration. [routing] (default {!Turn_model.Xy}) selects the routing
    function; the adaptive turn models are mesh-only. Raises
    [Invalid_argument] on mismatched PE arrays, non-positive bandwidth,
    negative latency, or an adaptive model on a non-mesh topology. *)

val topology : t -> Topology.t

val routing : t -> Turn_model.t
(** The platform's routing function. {!route} serves the canonical
    deterministic route of that function; the analyzer proves the whole
    admissible relation deadlock-free, and degraded views keep fault
    detours inside the model's turn-legal set. *)

val energy_model : t -> Energy_model.t
val n_pes : t -> int
val pe : t -> int -> Pe.t
val pes : t -> Pe.t array
val link_bandwidth : t -> float
val router_latency : t -> float

val route : t -> src:int -> dst:int -> int list
(** Routers visited between the two PEs' tiles (see {!Routing.route}).
    Routes are deterministic, so [route], [route_links] and [hops] are
    memoized in a per-platform [(src, dst)] table filled on first use —
    repeated probes from the scheduler's inner loop cost one array read. *)

val route_links : t -> src:int -> dst:int -> Routing.link list
val hops : t -> src:int -> dst:int -> int

val digest : t -> string
(** Stable content digest: FNV-1a ({!Noc_util.Fnv}) over a canonical
    serialization of the topology, routing function, PE descriptors,
    bit-energy model, bandwidth and router latency (floats rendered
    exactly). Derived state — in particular the route memo — does not
    participate, so warming routes leaves the digest unchanged. Used as
    the platform component of the serve daemon's schedule-cache key;
    since v2 the routing function participates, so schedules produced
    under different routing disciplines never alias. *)

val warm_routes : t -> unit
(** Eagerly fill the whole [(src, dst)] route memo. The lazy fill is
    not safe under concurrent use, so campaigns that share one platform
    across a {!Noc_util.Pool} fan-out call this before spawning; the
    workers then only read the table. Idempotent. *)

val comm_energy : t -> src:int -> dst:int -> bits:float -> float
(** Total network energy for moving [bits] from [src] to [dst]. Zero when
    they share a tile. *)

val comm_duration : t -> src:int -> dst:int -> bits:float -> float
(** Time a transaction occupies its route: [bits / b(r)] plus
    [(hops - 1) * router_latency] for distinct tiles, [0.] on the same
    tile. Wormhole routing pipelines the flits, so with the default zero
    router latency the serialisation delay dominates and is independent
    of hop count, matching the paper's single path reservation. *)

val route_hops : int list -> int
(** Hop count of an explicit route: the number of routers visited, [0]
    for a same-tile route ([[]] or [[p]]). For the platform's own routes
    this equals {!hops}. *)

val route_duration : t -> route:int list -> bits:float -> float
(** Like {!comm_duration} but over an explicit (possibly detour) route:
    the cost depends only on the route's length, so for the platform's
    deterministic routes the two agree exactly. *)

val route_energy : t -> route:int list -> bits:float -> float
(** Like {!comm_energy} over an explicit route. *)

val all_links : t -> Routing.link list

(** {1 Deterministic heterogeneous presets} *)

val heterogeneous : ?seed:int -> ?routing:Turn_model.t -> Topology.t -> unit -> t
(** A platform over an arbitrary topology whose PE kinds cycle through
    {!Pe.all_kinds} with mild per-tile factor perturbation drawn from
    [seed] (default 0); deterministic. Platforms built this way over
    different topologies of equal size have identical PE arrays, which
    is what the topology-comparison experiments need. *)

val heterogeneous_mesh :
  ?seed:int -> ?routing:Turn_model.t -> cols:int -> rows:int -> unit -> t
(** A mesh whose PE kinds cycle through {!Pe.all_kinds} with mild
    per-tile factor perturbation drawn from [seed] (default 0): every
    call with equal arguments yields the same platform. *)

val homogeneous_mesh : cols:int -> rows:int -> t
(** All-DSP mesh with unit factors — useful for tests where heterogeneity
    would obscure the property under test. *)

val pp : Format.formatter -> t -> unit
