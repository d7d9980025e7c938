(* The deterministic route of every ordered pair of distinct tiles. *)
let platform_routes platform =
  let n = Noc_noc.Platform.n_pes platform in
  let routes = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if src <> dst then
        routes := Noc_noc.Platform.route platform ~src ~dst :: !routes
    done
  done;
  !routes

let degraded_routes view =
  let n = Noc_noc.Platform.n_pes (Noc_noc.Degraded.platform view) in
  let routes = ref [] and unreachable = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if src <> dst then
        match Noc_noc.Degraded.route_opt view ~src ~dst with
        | Some route -> routes := route :: !routes
        | None -> unreachable := (src, dst) :: !unreachable
    done
  done;
  (!routes, !unreachable)

let cdg_of_platform platform = Cdg.of_routes (platform_routes platform)

let cdg_of_degraded view = Cdg.of_routes (fst (degraded_routes view))

let cycle_diagnostic ~what cycle =
  Diagnostic.error ~rule:"deadlock/cyclic-cdg"
    (Diagnostic.Channel_cycle cycle)
    "%s admits deadlock: %d channels form a circular wait" what (List.length cycle)

(* Discovery-path prefix src..v out of a BFS parent array; the concrete
   route witness attached to the routing/* diagnostics. *)
let prefix_to parent src v =
  let rec walk node acc =
    if node = src then src :: acc else walk parent.(node) (node :: acc)
  in
  walk v []

let cdg_of_routing routing platform =
  let topo = Noc_noc.Platform.topology platform in
  Cdg.of_relation
    ~n_nodes:(Noc_noc.Topology.n_nodes topo)
    ~next:(fun ~src ~dst ~node -> Noc_noc.Turn_model.next_hops routing topo ~src ~node ~dst)

(* Certify a routing function as a relation: every admissible hop must
   make progress (strictly decrease the distance to the destination,
   and never leave a non-destination node with no admissible hop at
   all), every turn the relation can compose must be permitted by the
   model's own turn predicate, and the relation's channel-dependency
   graph must be acyclic. The first two checks carry a concrete
   counterexample route; together with the CDG proof they certify every
   route the adaptive router could ever take, not just the canonical
   one per pair. *)
let check_routing ~routing platform =
  let topo = Noc_noc.Platform.topology platform in
  if not (Noc_noc.Turn_model.supports routing topo) then
    [
      Diagnostic.error ~rule:"routing/unsupported-topology" Diagnostic.Nowhere
        "%s routing is not defined on this topology (%s)"
        (Noc_noc.Turn_model.name routing)
        (Format.asprintf "%a" Noc_noc.Topology.pp topo);
    ]
  else begin
    let n = Noc_noc.Topology.n_nodes topo in
    let next ~src ~dst ~node =
      Noc_noc.Turn_model.next_hops routing topo ~src ~node ~dst
    in
    let diags = ref [] in
    (* Dedup witnesses across pairs: the same bad hop or turn shows up
       once per destination (or source) that exposes it. *)
    let seen_hop : (int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    let seen_turn : (int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    let seen_stall : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then begin
          (* Forward closure of the relation from [src], keeping one
             deterministic parent per node so witnesses are concrete
             route prefixes. *)
          let parent = Array.make n (-1) in
          let seen = Array.make n false in
          let preds = Array.make n [] in
          let queue = Queue.create () in
          seen.(src) <- true;
          Queue.add src queue;
          while not (Queue.is_empty queue) do
            let v = Queue.pop queue in
            if v <> dst then begin
              let hops = next ~src ~dst ~node:v in
              if hops = [] && not (Hashtbl.mem seen_stall (v, dst)) then begin
                Hashtbl.add seen_stall (v, dst) ();
                diags :=
                  Diagnostic.error ~rule:"routing/non-minimal"
                    (Diagnostic.Route (prefix_to parent src v))
                    "%s routing stalls at tile %d with no admissible hop towards tile %d"
                    (Noc_noc.Turn_model.name routing)
                    v dst
                  :: !diags
              end;
              List.iter
                (fun a ->
                  if
                    Noc_noc.Topology.distance topo a dst
                    >= Noc_noc.Topology.distance topo v dst
                    && not (Hashtbl.mem seen_hop (v, a, dst))
                  then begin
                    Hashtbl.add seen_hop (v, a, dst) ();
                    diags :=
                      Diagnostic.error ~rule:"routing/non-minimal"
                        (Diagnostic.Route (prefix_to parent src v @ [ a ]))
                        "%s routing admits hop %d->%d, which does not approach tile %d"
                        (Noc_noc.Turn_model.name routing)
                        v a dst
                      :: !diags
                  end;
                  preds.(a) <- v :: preds.(a);
                  if not seen.(a) then begin
                    seen.(a) <- true;
                    parent.(a) <- v;
                    Queue.add a queue
                  end)
                hops
            end
          done;
          (* Every turn the relation composes must be legal: [u -> m]
             and [m -> a] both admissible means a packet can arrive at
             [m] from [u] and leave towards [a]. *)
          for m = 0 to n - 1 do
            if seen.(m) && m <> dst && preds.(m) <> [] then
              List.iter
                (fun a ->
                  List.iter
                    (fun u ->
                      if
                        (not (Noc_noc.Turn_model.turn_legal routing topo ~prev:u ~via:m ~next:a))
                        && not (Hashtbl.mem seen_turn (u, m, a))
                      then begin
                        Hashtbl.add seen_turn (u, m, a) ();
                        diags :=
                          Diagnostic.error ~rule:"routing/illegal-turn"
                            (Diagnostic.Route (prefix_to parent src u @ [ m; a ]))
                            "%s routing composes the prohibited turn %d->%d->%d"
                            (Noc_noc.Turn_model.name routing)
                            u m a
                          :: !diags
                      end)
                    preds.(m))
                (next ~src ~dst ~node:m)
          done
        end
      done
    done;
    let cycle =
      match Cdg.find_cycle (cdg_of_routing routing platform) with
      | None -> []
      | Some cycle ->
        [
          cycle_diagnostic
            ~what:(Noc_noc.Turn_model.name routing ^ " route relation")
            cycle;
        ]
    in
    List.rev !diags @ cycle
  end

let check_platform platform =
  match Noc_noc.Platform.topology platform with
  | Noc_noc.Topology.Honeycomb _ ->
    (* Honeycombs route by BFS — no turn model, so certify the one
       deterministic route per pair as before. *)
    (match Cdg.find_cycle (cdg_of_platform platform) with
    | None -> []
    | Some cycle -> [ cycle_diagnostic ~what:"deterministic route set" cycle ])
  | Noc_noc.Topology.Mesh _ | Noc_noc.Topology.Torus _ ->
    check_routing ~routing:(Noc_noc.Platform.routing platform) platform

let check_degraded platform faults =
  let view = Noc_fault.Fault_set.degraded faults platform in
  let routes, unreachable = degraded_routes view in
  let cycle =
    match Cdg.find_cycle (Cdg.of_routes routes) with
    | None -> []
    | Some cycle -> [ cycle_diagnostic ~what:"degraded detour route set" cycle ]
  in
  let disconnected =
    List.map
      (fun (src, dst) ->
        Diagnostic.error ~rule:"deadlock/unreachable-pair" (Diagnostic.Tile src)
          "fault set leaves no route from tile %d to tile %d" src dst)
      unreachable
  in
  cycle @ disconnected
