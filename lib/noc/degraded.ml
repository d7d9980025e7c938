(* A degraded view of a platform: some PEs can no longer execute tasks
   and some directed links can no longer carry flits. Routers of failed
   PEs keep routing (a stalled core does not take its switch down), so
   degradation only removes links from the routing graph and PEs from
   the set of legal execution targets.

   Routes prefer the platform's canonical route when it survives.
   Otherwise, on platforms with an adaptive turn model, a detour is
   searched inside the model's turn-legal walk set first: a BFS over
   (node, entry-direction) states whose transitions are exactly the
   permitted turns. Such a detour may be non-minimal, but by the
   turn-model theorem the route set stays free of circular waits — the
   analyzer can prove the degraded CDG acyclic instead of flagging it.
   Only when no turn-legal route survives (or the platform routes XY,
   whose turn rules admit a single route per pair) does the view fall
   back to the unrestricted deterministic minimal BFS detour
   (smallest-index parent, the same tie-break the honeycomb routing
   uses). All parent tables and per-(src, dst) route records are
   memoised in the view, so one view per fault set gives the scheduler
   the same O(1) repeated-probe cost as the fault-free route table. *)

type route_info = { nodes : int list; links : Routing.link list; n_hops : int }

type t = {
  platform : Platform.t;
  dead_pes : bool array;
  dead_links : bool array; (* indexed from * n + to *)
  parents : int array option array; (* per-source BFS parents, on demand *)
  (* Per-source turn-legal state BFS: distance and parent per
     (node, entry-node) state, indexed node * (n + 1) + entry + 1 where
     entry = -1 marks the search root. Adaptive platforms only. *)
  legal : (int array * int array) option array;
  route_cache : route_info option option array; (* None = not computed *)
}

let make platform ~failed_pes ~failed_links =
  let n = Platform.n_pes platform in
  let dead_pes = Array.make n false in
  List.iter
    (fun pe ->
      if pe < 0 || pe >= n then invalid_arg "Degraded.make: PE out of range";
      dead_pes.(pe) <- true)
    failed_pes;
  let dead_links = Array.make (n * n) false in
  List.iter
    (fun (l : Routing.link) ->
      if l.from_node < 0 || l.from_node >= n || l.to_node < 0 || l.to_node >= n then
        invalid_arg "Degraded.make: link endpoint out of range";
      dead_links.((l.from_node * n) + l.to_node) <- true)
    failed_links;
  {
    platform;
    dead_pes;
    dead_links;
    parents = Array.make n None;
    legal = Array.make n None;
    route_cache = Array.make (n * n) None;
  }

let platform t = t.platform
let pe_alive t pe = not t.dead_pes.(pe)

let alive_pes t =
  List.filter (fun pe -> not t.dead_pes.(pe)) (List.init (Array.length t.dead_pes) Fun.id)

let link_alive t (l : Routing.link) =
  not t.dead_links.((l.from_node * Array.length t.dead_pes) + l.to_node)

let is_trivial t =
  Array.for_all not t.dead_pes && Array.for_all not t.dead_links

(* Forward BFS from [src] over surviving links; parent of [v] is the
   smallest-index [u] one step closer with link u->v alive. *)
let bfs_parents t src =
  match t.parents.(src) with
  | Some parents -> parents
  | None ->
    let topo = Platform.topology t.platform
    and n = Array.length t.dead_pes in
    let dist = Array.make n (-1) in
    dist.(src) <- 0;
    let parents = Array.make n (-1) in
    let queue = Queue.create () in
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if (not t.dead_links.((u * n) + v)) && dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            parents.(v) <- u;
            Queue.add v queue
          end)
        (Topology.neighbours topo u)
    done;
    (* Re-derive parents deterministically: BFS discovery order depends
       on the queue, so fix each parent to the smallest-index candidate
       at the right distance. *)
    for v = 0 to n - 1 do
      if v <> src && dist.(v) > 0 then
        parents.(v) <-
          List.fold_left
            (fun best u ->
              if
                dist.(u) = dist.(v) - 1
                && (not t.dead_links.((u * n) + v))
                && (best = -1 || u < best)
              then u
              else best)
            (-1)
            (Topology.neighbours topo v)
    done;
    t.parents.(src) <- Some parents;
    parents

(* Turn-legal detour search for adaptive platforms: BFS over
   (node, entry-node) states where a transition u -> v exists when the
   link survives and the turn entry -> u -> v is permitted by the
   platform's turn model. The state split matters: whether v is usable
   from u depends on how u was entered, so plain node BFS would both
   miss legal routes and accept illegal ones. First-discovery order is
   deterministic (FIFO queue, canonical neighbour order), and detours
   found here may exceed the minimal hop count — legality, not
   minimality, is what keeps the degraded CDG acyclic. *)
let legal_states t src =
  match t.legal.(src) with
  | Some tables -> tables
  | None ->
    let topo = Platform.topology t.platform
    and routing = Platform.routing t.platform
    and n = Array.length t.dead_pes in
    let state node entry = (node * (n + 1)) + entry + 1 in
    let dist = Array.make (n * (n + 1)) (-1)
    and parent = Array.make (n * (n + 1)) (-1) in
    let queue = Queue.create () in
    dist.(state src (-1)) <- 0;
    Queue.add (src, -1) queue;
    while not (Queue.is_empty queue) do
      let u, entry = Queue.pop queue in
      let here = state u entry in
      List.iter
        (fun v ->
          if
            (not t.dead_links.((u * n) + v))
            && (entry < 0 || Turn_model.turn_legal routing topo ~prev:entry ~via:u ~next:v)
            && dist.(state v u) < 0
          then begin
            dist.(state v u) <- dist.(here) + 1;
            parent.(state v u) <- here;
            Queue.add (v, u) queue
          end)
        (Topology.neighbours topo u)
    done;
    t.legal.(src) <- Some (dist, parent);
    (dist, parent)

let turn_legal_detour t ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let n = Array.length t.dead_pes in
    let dist, parent = legal_states t src in
    (* Shortest turn-legal arrival at [dst], ties to the smallest entry
       node, keeps the extraction canonical. *)
    let best = ref (-1) in
    for entry = 0 to n - 1 do
      let s = (dst * (n + 1)) + entry + 1 in
      if dist.(s) >= 0 && (!best < 0 || dist.(s) < dist.(!best)) then best := s
    done;
    if !best < 0 then None
    else begin
      let rec walk s acc =
        let node = s / (n + 1) in
        if parent.(s) < 0 then node :: acc else walk parent.(s) (node :: acc)
      in
      Some (walk !best [])
    end
  end

let detour_route t ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let parents = bfs_parents t src in
    let rec walk node acc =
      if node = src then Some (node :: acc)
      else
        let parent = parents.(node) in
        if parent < 0 then None else walk parent (node :: acc)
    in
    walk dst []
  end

let route_info t ~src ~dst =
  let n = Array.length t.dead_pes in
  let idx = (src * n) + dst in
  match t.route_cache.(idx) with
  | Some cached -> cached
  | None ->
    let default_nodes = Platform.route t.platform ~src ~dst in
    let default_links = Platform.route_links t.platform ~src ~dst in
    let nodes =
      if List.for_all (link_alive t) default_links then Some default_nodes
      else
        match Platform.routing t.platform with
        | Turn_model.Xy ->
          (* XY's turn rules admit exactly one route per pair — the dead
             one — so go straight to the unrestricted BFS detour. *)
          detour_route t ~src ~dst
        | Turn_model.West_first | Turn_model.Odd_even ->
          (match turn_legal_detour t ~src ~dst with
          | Some nodes -> Some nodes
          | None -> detour_route t ~src ~dst)
    in
    let info =
      Option.map
        (fun nodes ->
          {
            nodes;
            links = Routing.links_of_route nodes;
            n_hops = Platform.route_hops nodes;
          })
        nodes
    in
    t.route_cache.(idx) <- Some info;
    info

let reachable t ~src ~dst = route_info t ~src ~dst <> None

let route_opt t ~src ~dst = Option.map (fun i -> i.nodes) (route_info t ~src ~dst)

let get what ~src ~dst = function
  | Some info -> info
  | None ->
    invalid_arg
      (Printf.sprintf "Degraded.%s: no surviving route from %d to %d" what src dst)

let route t ~src ~dst = (get "route" ~src ~dst (route_info t ~src ~dst)).nodes
let route_links t ~src ~dst = (get "route_links" ~src ~dst (route_info t ~src ~dst)).links
let hops t ~src ~dst = (get "hops" ~src ~dst (route_info t ~src ~dst)).n_hops

let comm_duration t ~src ~dst ~bits =
  Platform.route_duration t.platform ~route:(route t ~src ~dst) ~bits

let comm_energy t ~src ~dst ~bits =
  Platform.route_energy t.platform ~route:(route t ~src ~dst) ~bits

let route_valid t nodes =
  let topo = Platform.topology t.platform in
  match nodes with
  | [] -> false
  | [ p ] -> p >= 0 && p < Array.length t.dead_pes
  | _ :: _ ->
    List.for_all (fun p -> p >= 0 && p < Array.length t.dead_pes) nodes
    && List.for_all
         (fun (l : Routing.link) ->
           Topology.are_neighbours topo l.from_node l.to_node && link_alive t l)
         (Routing.links_of_route nodes)
