(** Routing deadlock-freedom analysis.

    Collects the complete route set a platform (or a degraded view of it
    under a fault set) would use, builds its {!Cdg} and reports any
    channel-dependency cycle. Since the turn-model generalization this
    works at the level of route {e relations}: {!check_routing}
    certifies every admissible route of an adaptive routing function
    (minimality, turn legality and relation-CDG acyclicity), with XY as
    the degenerate single-route case. XY and the turn models on a mesh
    always pass; unrestricted BFS detour routes around failed links can
    and do fail, which is exactly the regression the paper's
    deterministic-routing assumption hides — and what the turn-legal
    degraded detours of {!Noc_noc.Degraded} now avoid by construction. *)

val degraded_routes :
  Noc_noc.Degraded.t -> int list list * (int * int) list
(** Routes over the surviving fabric plus the list of (src, dst) pairs
    the fault set disconnects. *)

val cdg_of_platform : Noc_noc.Platform.t -> Cdg.t
val cdg_of_degraded : Noc_noc.Degraded.t -> Cdg.t

val cdg_of_routing : Noc_noc.Turn_model.t -> Noc_noc.Platform.t -> Cdg.t
(** {!Cdg.of_relation} over the routing function's admissible next-hop
    relation on the platform's topology. *)

val check_routing :
  routing:Noc_noc.Turn_model.t -> Noc_noc.Platform.t -> Diagnostic.t list
(** Certify [routing] on the platform's topology as a relation. Rules:
    [routing/non-minimal] (error) when some admissible hop fails to
    approach the destination or the relation strands a packet short of
    it, [routing/illegal-turn] (error) when the relation composes a
    turn the model's own predicate prohibits — both carry a concrete
    counterexample route — and [deadlock/cyclic-cdg] (error) when the
    relation's CDG has a cycle. An empty result proves {e every} route
    the adaptive router could take deadlock-free (Dally–Seitz over the
    full relation). [routing/unsupported-topology] (error) when the
    model is not defined on the topology (adaptive models are
    mesh-only). *)

val check_platform : Noc_noc.Platform.t -> Diagnostic.t list
(** Rule [deadlock/cyclic-cdg] (error) when the healthy route set's CDG
    has a cycle; empty when the routing is provably deadlock-free. On
    meshes and tori this is {!check_routing} applied to the platform's
    own routing function (so adaptive platforms get the full relation
    proof); honeycombs certify their one BFS route per pair as before. *)

val check_degraded :
  Noc_noc.Platform.t -> Noc_fault.Fault_set.t -> Diagnostic.t list
(** Same analysis over the fault set's degraded view (every element that
    ever fails is masked). Adds rule [deadlock/unreachable-pair] (error)
    for each tile pair the faults disconnect. *)
