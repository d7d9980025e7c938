(* One FIFO queue, newest at [head], oldest at [tail], threaded through
   the nodes themselves. [hand] is the next node the eviction sweep
   inspects; [None] means it starts again from [tail]. *)
type 'a node = {
  key : string;
  mutable value : 'a;
  mutable visited : bool;
  mutable newer : 'a node option;
  mutable older : 'a node option;
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hand : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    hand = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    node.visited <- true;
    t.hits <- t.hits + 1;
    Some node.value
  | None ->
    t.misses <- t.misses + 1;
    None

let unlink t node =
  (match node.newer with Some n -> n.older <- node.older | None -> t.head <- node.older);
  match node.older with Some o -> o.newer <- node.newer | None -> t.tail <- node.newer

(* The SIEVE sweep: walk from the hand towards the head, wrapping to the
   tail, clearing visited bits, and evict the first unvisited node. Each
   bit a sweep clears was set by a hit, so eviction is amortised O(1);
   one lap clears them all, so the walk ends. Only called on a full
   cache, whose tail exists. *)
let evict t =
  let rec sweep = function
    | None -> sweep t.tail
    | Some node when node.visited ->
      node.visited <- false;
      sweep node.newer
    | Some node -> node
  in
  let victim = sweep t.hand in
  t.hand <- victim.newer;
  unlink t victim;
  Hashtbl.remove t.table victim.key;
  t.evictions <- t.evictions + 1

let peek t key = Option.map (fun node -> node.value) (Hashtbl.find_opt t.table key)

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    node.value <- value;
    node.visited <- true
  | None ->
    if Hashtbl.length t.table >= t.capacity then evict t;
    let node = { key; value; visited = false; newer = None; older = t.head } in
    (match t.head with Some h -> h.newer <- Some node | None -> t.tail <- Some node);
    t.head <- Some node;
    Hashtbl.replace t.table key node

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let keys t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk (node.key :: acc) node.older
  in
  walk [] t.head
