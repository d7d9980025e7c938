(* Channel-dependency graph of a route set (Dally & Seitz). Vertices are
   the directed channels the routes use; an arc a -> b records that some
   route acquires channel b while holding channel a (consecutive links
   of one route). A cycle in this graph is a potential circular wait —
   the route set admits deadlock; acyclicity proves it cannot. *)

type t = {
  channels : (int * int) array;  (* canonically sorted by endpoint pair *)
  succs : int list array;  (* sorted successor channel indices *)
}

(* Shared builder: channels are interned on first sight, dependency
   arcs deduplicated, and everything renumbered canonically at the end
   so that equal channel/dependency sets yield identical graphs
   regardless of insertion order. *)
type builder = {
  index : (int * int, int) Hashtbl.t;
  mutable rev_channels : (int * int) list;
  mutable count : int;
  deps : (int * int, unit) Hashtbl.t;
}

let builder () =
  { index = Hashtbl.create 64; rev_channels = []; count = 0; deps = Hashtbl.create 64 }

let id_of b pair =
  match Hashtbl.find_opt b.index pair with
  | Some i -> i
  | None ->
    let i = b.count in
    b.count <- i + 1;
    Hashtbl.add b.index pair i;
    b.rev_channels <- pair :: b.rev_channels;
    i

let add_dep b la lb = if not (Hashtbl.mem b.deps (la, lb)) then Hashtbl.add b.deps (la, lb) ()

let finalize b =
  let channels = Array.of_list (List.rev b.rev_channels) in
  let order = Array.init (Array.length channels) Fun.id in
  Array.sort (fun i j -> compare channels.(i) channels.(j)) order;
  let rank = Array.make (Array.length channels) 0 in
  Array.iteri (fun new_id old_id -> rank.(old_id) <- new_id) order;
  let sorted_channels = Array.map (fun old_id -> channels.(old_id)) order in
  let succs = Array.make (Array.length channels) [] in
  Hashtbl.iter
    (fun (a, b) () -> succs.(rank.(a)) <- rank.(b) :: succs.(rank.(a)))
    b.deps;
  Array.iteri (fun i l -> succs.(i) <- List.sort_uniq compare l) succs;
  { channels = sorted_channels; succs }

let of_routes routes =
  let b = builder () in
  List.iter
    (fun route ->
      let rec walk = function
        | a :: (b' :: c :: _ as rest) ->
          add_dep b (id_of b (a, b')) (id_of b (b', c));
          walk rest
        | [ a; b' ] -> ignore (id_of b (a, b'))
        | [ _ ] | [] -> ()
      in
      walk route)
    routes;
  finalize b

(* CDG of a route *relation*: for every ordered pair, walk the forward
   closure of the admissible next hops from [src] and record a channel
   per admissible hop and a dependency per admissible consecutive hop
   pair. This covers every route the relation admits without ever
   enumerating them (an adaptive model can admit exponentially many
   routes per pair, e.g. C(14,7) minimal routes across an 8x8 mesh),
   because a dependency a->b->c exists iff b is admissible at a and c
   admissible at b — exactly the local facts the closure visits. *)
let of_relation ~n_nodes ~next =
  let b = builder () in
  for src = 0 to n_nodes - 1 do
    for dst = 0 to n_nodes - 1 do
      if src <> dst then begin
        let seen = Array.make n_nodes false in
        let queue = Queue.create () in
        seen.(src) <- true;
        Queue.add src queue;
        while not (Queue.is_empty queue) do
          let v = Queue.pop queue in
          if v <> dst then
            List.iter
              (fun a ->
                let la = id_of b (v, a) in
                if a <> dst then
                  List.iter (fun c -> add_dep b la (id_of b (a, c))) (next ~src ~dst ~node:a);
                if not seen.(a) then begin
                  seen.(a) <- true;
                  Queue.add a queue
                end)
              (next ~src ~dst ~node:v)
        done
      end
    done
  done;
  finalize b

let find_cycle t =
  let n = Array.length t.channels in
  (* 0 = unvisited, 1 = on the current DFS path, 2 = done. *)
  let colour = Array.make n 0 in
  let result = ref None in
  let rec dfs path u =
    colour.(u) <- 1;
    let path = u :: path in
    List.iter
      (fun v ->
        if !result = None then
          if colour.(v) = 1 then begin
            (* Back edge u -> v: the path segment v..u closes a cycle.
               [path] has u at its head, so pushing elements until v is
               reached yields the cycle in dependency order. *)
            let rec collect acc = function
              | [] -> acc
              | x :: rest -> if x = v then x :: acc else collect (x :: acc) rest
            in
            result := Some (collect [] path)
          end
          else if colour.(v) = 0 then dfs path v)
      t.succs.(u);
    colour.(u) <- 2
  in
  let u = ref 0 in
  while !result = None && !u < n do
    if colour.(!u) = 0 then dfs [] !u;
    incr u
  done;
  Option.map
    (List.map (fun i ->
         let from_node, to_node = t.channels.(i) in
         { Noc_noc.Routing.from_node; to_node }))
    !result

let is_acyclic t = find_cycle t = None
