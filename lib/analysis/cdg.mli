(** Dally–Seitz channel-dependency graphs.

    A routing function is deadlock-free exactly when its channel
    dependency graph is acyclic (Dally & Seitz 1987): the vertices are
    the directed physical channels and there is an arc from channel [a]
    to channel [b] whenever some route uses [b] immediately after [a] —
    a packet holding [a] may then wait for [b]. Dimension-ordered XY
    routing on a mesh is deadlock-free by construction; the degraded BFS
    detour routes of {!Noc_noc.Degraded} carry no such guarantee, which
    is what this analyzer exists to check. *)

type t

val of_routes : int list list -> t
(** Builds the CDG of a route set. Each route is the ordered list of
    routers it visits; routes with fewer than two nodes contribute no
    channels. The construction is deterministic: channels and
    dependencies are kept in first-seen order but compared canonically
    by endpoint pair. *)

val of_relation :
  n_nodes:int -> next:(src:int -> dst:int -> node:int -> int list) -> t
(** Builds the CDG of a route {e relation}: [next ~src ~dst ~node] must
    enumerate the admissible next hops at [node] when routing
    [src -> dst] (empty exactly at [dst]). For every ordered pair the
    forward closure of the relation is walked, recording one channel
    per admissible hop and one dependency per admissible consecutive
    hop pair — covering all routes the relation admits without
    enumerating them (adaptive models admit exponentially many).
    Acyclicity of the result therefore proves the {e whole} adaptive
    routing function deadlock-free, not just one route per pair. For a
    single-valued relation this coincides with {!of_routes} over the
    per-pair routes. Deterministic and canonical like {!of_routes}. *)

val find_cycle : t -> Noc_noc.Routing.link list option
(** A cycle of channel dependencies if one exists: the returned channels
    each depend on the next, and the last depends on the first. The
    search is deterministic (smallest channel first), so equal route
    sets report equal cycles. [None] means the route set is provably
    deadlock-free. *)

val is_acyclic : t -> bool
(** [find_cycle t = None]. *)
