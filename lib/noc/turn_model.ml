(* Turn-model routing functions (Glass & Ni 1992; Chiu 2000). A turn
   model proves deadlock-freedom by prohibiting just enough turns to
   break every abstract cycle of the channel-dependency graph; every
   route that uses only permitted turns — minimal or not — is then free
   of circular waits. XY is the degenerate member of the family: it
   prohibits both y-to-x turns, leaving exactly one route per pair.

   The module exposes the routing function as a *relation*: [next_hops]
   enumerates every admissible minimal next hop, so an analyzer can
   certify all routes an adaptive router could ever take, and
   [turn_legal] exposes the prohibited-turn predicate itself so detour
   search on degraded fabrics can stay inside the proven-safe set even
   on non-minimal paths. *)

type t = Xy | West_first | Odd_even

let name = function Xy -> "xy" | West_first -> "west-first" | Odd_even -> "odd-even"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "xy" -> Ok Xy
  | "west-first" | "westfirst" | "wf" -> Ok West_first
  | "odd-even" | "oddeven" | "oe" -> Ok Odd_even
  | other ->
    Error
      (Printf.sprintf "unknown routing function %S (expected xy, west-first or odd-even)"
         other)

let is_adaptive = function Xy -> false | West_first | Odd_even -> true

(* Adaptive turn models are formulated on meshes: a torus wraparound
   channel re-introduces the ring cycles the turn prohibitions were
   chosen to break, and honeycombs have no dimension-order geometry at
   all. XY extends to tori (the proof does not — tori need virtual
   channels — but the routing function is well defined). *)
let supports t topo =
  match (t, topo) with
  | Xy, (Topology.Mesh _ | Topology.Torus _) -> true
  | Xy, Topology.Honeycomb _ -> false
  | (West_first | Odd_even), Topology.Mesh _ -> true
  | (West_first | Odd_even), (Topology.Torus _ | Topology.Honeycomb _) -> false

(* Directions on the mesh/torus grid. North is towards row 0 (y - 1),
   South towards higher rows, East towards higher columns. *)
type dir = E | W | N | S

let opposite = function E -> W | W -> E | N -> S | S -> N
let is_y = function N | S -> true | E | W -> false

let dir_between topo u v =
  let dx, dy = Topology.deltas topo u v in
  if dx = 1 && dy = 0 then E
  else if dx = -1 && dy = 0 then W
  else if dx = 0 && dy = -1 then N
  else if dx = 0 && dy = 1 then S
  else invalid_arg "Turn_model: nodes are not neighbours"

let require_mesh t topo =
  match topo with
  | Topology.Mesh _ -> ()
  | Topology.Torus _ | Topology.Honeycomb _ ->
    invalid_arg
      (Printf.sprintf "Turn_model.%s: adaptive turn models are defined on meshes only"
         (name t))

(* Admissible minimal next hops of [t] at [node], routing [src] -> [dst].
   Sorted ascending by tile index so the head is the canonical
   deterministic choice. Only odd-even consults [src]: Chiu's ROUTE
   function permits the eastbound vertical move in the source column
   even when that column is even. *)
let next_hops t topo ~src ~node ~dst =
  if node = dst then []
  else
    match t with
    | Xy ->
      (match topo with
      | Topology.Honeycomb _ ->
        invalid_arg "Turn_model.next_hops: honeycombs route by BFS, not a turn model"
      | Topology.Mesh _ | Topology.Torus _ ->
        let dx, dy = Topology.deltas topo node dst in
        if dx <> 0 then [ Topology.step topo node ~dx ~dy:0 ]
        else [ Topology.step topo node ~dx:0 ~dy ])
    | West_first ->
      require_mesh t topo;
      let dx, dy = Topology.deltas topo node dst in
      if dx < 0 then
        (* All west hops are taken first; no other direction may precede
           or interleave with them, so west is the only admissible move. *)
        [ Topology.step topo node ~dx ~dy:0 ]
      else begin
        let hops = if dx > 0 then [ Topology.step topo node ~dx ~dy:0 ] else [] in
        let hops =
          if dy <> 0 then Topology.step topo node ~dx:0 ~dy :: hops else hops
        in
        List.sort compare hops
      end
    | Odd_even ->
      require_mesh t topo;
      let cx, _ = Topology.coords topo node in
      let sx, _ = Topology.coords topo src in
      let dcol, _ = Topology.coords topo dst in
      let dx, dy = Topology.deltas topo node dst in
      let y_hop () = Topology.step topo node ~dx:0 ~dy in
      if dx = 0 then [ y_hop () ]
      else if dx > 0 then
        if dy = 0 then [ Topology.step topo node ~dx ~dy:0 ]
        else begin
          (* Chiu's ROUTE: the EN/ES turn is only available at odd
             columns (or before the first east move, in the source
             column); the east move is withheld one column early when
             the destination column is even, because the final EN/ES
             turn there would be prohibited. *)
          let hops = if cx mod 2 = 1 || cx = sx then [ y_hop () ] else [] in
          let hops =
            if dcol mod 2 = 1 || dx <> 1 then Topology.step topo node ~dx ~dy:0 :: hops
            else hops
          in
          List.sort compare hops
        end
      else begin
        (* Westbound: west is always admissible; the NW/SW turns that a
           later west move implies are only permitted at even columns. *)
        let hops = [ Topology.step topo node ~dx ~dy:0 ] in
        let hops =
          if dy <> 0 && cx mod 2 = 0 then y_hop () :: hops else hops
        in
        List.sort compare hops
      end

let turn_legal t topo ~prev ~via ~next =
  let d1 = dir_between topo prev via and d2 = dir_between topo via next in
  if d2 = opposite d1 then false (* 180-degree turns are always prohibited *)
  else
    match t with
    | Xy -> not (is_y d1 && not (is_y d2))
    | West_first -> not (d2 = W && d1 <> W)
    | Odd_even ->
      let cx, _ = Topology.coords topo via in
      let even = cx mod 2 = 0 in
      not ((d1 = E && is_y d2 && even) || (is_y d1 && d2 = W && not even))

(* Canonical deterministic route: at every node take the smallest
   admissible tile index. For XY this reproduces {!Routing.xy_route}
   exactly (the relation is single-valued); for the adaptive models it
   picks one provably-safe minimal route per pair. *)
let route t topo ~src ~dst =
  let rec go node acc steps =
    if node = dst then List.rev (node :: acc)
    else if steps > Topology.n_nodes topo then
      invalid_arg "Turn_model.route: relation does not converge"
    else
      match next_hops t topo ~src ~node ~dst with
      | [] -> invalid_arg "Turn_model.route: relation stalls before the destination"
      | hop :: _ -> go hop (node :: acc) (steps + 1)
  in
  go src [] 0

let pp ppf t = Format.pp_print_string ppf (name t)
