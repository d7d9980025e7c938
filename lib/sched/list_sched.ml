module Timeline = Noc_util.Timeline

type t = {
  ctg : Noc_ctg.Ctg.t;
  comm_model : Comm_sched.model;
  state : Resource_state.t;
  n_pes : int;
  hops : int array;
  routes : int list array;
  route_tables : Timeline.t array array;
  route_ids : int array array;
  window : float array;
  probe_mark : Resource_state.marks;
  link_bandwidth : float;
  router_latency : float;
  in_start : int array;
  in_edge : int array;
  in_order : int array;
  pred : int array;
  succ_start : int array;
  succ : int array;
  edge_src : int array;
  volume : float array;
  pe : int array;
  start : float array;
  finish : float array;
  tx_start : float array;
  tx_finish : float array;
}

(* CSR rows of the edges: row [row e] holds [entry e] for each edge [e]
   sent to it, in increasing edge id (the order of [Ctg.in_edges] and
   [Ctg.out_edges]). Returns the row offsets and the entries. *)
let csr n (edges : Noc_ctg.Edge.t array) row entry =
  let start = Array.make (n + 1) 0 in
  Array.iter (fun e -> start.(row e + 1) <- start.(row e + 1) + 1) edges;
  for i = 1 to n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let next = Array.sub start 0 n in
  let entries = Array.make (Array.length edges) 0 in
  Array.iter
    (fun e ->
      entries.(next.(row e)) <- entry e;
      next.(row e) <- next.(row e) + 1)
    edges;
  (start, entries)

let make ?(comm_model = Comm_sched.Contention_aware) ?degraded platform ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg and n_edges = Noc_ctg.Ctg.n_edges ctg in
  let edges = Noc_ctg.Ctg.edges ctg in
  let in_start, in_edge = csr n edges (fun e -> e.dst) (fun e -> e.id) in
  let succ_start, succ = csr n edges (fun e -> e.src) (fun e -> e.dst) in
  let state = Resource_state.create platform in
  (* The route lookup, filled for every pair up front so that walks and
     [schedule] only read it. *)
  let n_pes = Noc_noc.Platform.n_pes platform in
  let hops = Array.make (n_pes * n_pes) (-1) in
  let routes = Array.make (n_pes * n_pes) [] in
  let route_tables = Array.make (n_pes * n_pes) [||] in
  let route_ids = Array.make (n_pes * n_pes) [||] in
  let set_route idx route links =
    hops.(idx) <- Noc_noc.Platform.route_hops route;
    routes.(idx) <- route;
    route_tables.(idx) <- Array.of_list (List.map (Resource_state.link_table state) links);
    route_ids.(idx) <- Array.of_list (List.map (Resource_state.link_id state) links)
  in
  for src = 0 to n_pes - 1 do
    for dst = 0 to n_pes - 1 do
      let idx = (src * n_pes) + dst in
      match degraded with
      | None ->
        set_route idx
          (Noc_noc.Platform.route platform ~src ~dst)
          (Noc_noc.Platform.route_links platform ~src ~dst)
      | Some view -> (
        match Noc_noc.Degraded.route_opt view ~src ~dst with
        | None -> ()
        | Some route -> set_route idx route (Noc_noc.Degraded.route_links view ~src ~dst))
    done
  done;
  {
    ctg;
    comm_model;
    state;
    n_pes;
    hops;
    routes;
    route_tables;
    route_ids;
    window = [| 0.; 0. |];
    probe_mark = Resource_state.marks state 1;
    link_bandwidth = Noc_noc.Platform.link_bandwidth platform;
    router_latency = Noc_noc.Platform.router_latency platform;
    in_start;
    in_edge;
    in_order =
      Array.make
        (let widest = ref 0 in
         for i = 0 to n - 1 do
           widest := Int.max !widest (in_start.(i + 1) - in_start.(i))
         done;
         !widest)
        0;
    pred = Array.map (fun e -> edges.(e).Noc_ctg.Edge.src) in_edge;
    succ_start;
    succ;
    edge_src = Array.map (fun (e : Noc_ctg.Edge.t) -> e.src) edges;
    volume = Array.map (fun (e : Noc_ctg.Edge.t) -> e.volume) edges;
    pe = Array.make n (-1);
    start = Array.make n nan;
    finish = Array.make n nan;
    tx_start = Array.make n_edges nan;
    tx_finish = Array.make n_edges nan;
  }

let c_transactions = Noc_obs.Counters.counter "sched.comm.transactions"
let c_probe_transactions = Noc_obs.Counters.counter "sched.list_sched.probe_transactions"

(* Whether in-edge [e1] is sent before [e2] in the Fig. 3 order. *)
let sent_before t e1 e2 =
  Comm_sched.compare_sends ~finish:t.finish ~edge_src:t.edge_src e1 e2 < 0

(* Task [i]'s in-edges in the Fig. 3 order, insertion-sorted (in-degrees
   are small) into the first cells of [order]; returns their count. *)
let fig3_order t order i =
  let lo = t.in_start.(i) in
  let n = t.in_start.(i + 1) - lo in
  Array.blit t.in_edge lo order 0 n;
  for j = 1 to n - 1 do
    let e = order.(j) in
    let p = ref j in
    while !p > 0 && sent_before t e order.(!p - 1) do
      order.(!p) <- order.(!p - 1);
      decr p
    done;
    order.(!p) <- e
  done;
  n

(* Raised by the walk at a sender's PE that cannot reach the receiver's:
   [place] reports it as [Invalid_argument], a probe reads [infinity],
   and any other failure of the walk still propagates from both. *)
exception Unreachable of int

(* The one Fig. 3 walk: sends task [i]'s in-edges to PE [k] in the Fig. 3
   order (sorted into [t.in_order]), reserving each window through the
   journal and recording it in [tx_start]/[tx_finish], counts the
   transactions on [counter] (once per walk), and leaves the data-ready
   time, the latest arrival ([0.] for none), in [t.window.(0)]: a float
   result would be boxed. A sender that cannot reach [k] raises
   [Unreachable], after the windows before it were reserved and
   counted. Every branch of a window's start reads a float variable or
   array cell, so the walk keeps its floats unboxed. *)
let receive t counter i k =
  let order = t.in_order and window = t.window in
  let drt = ref 0. in
  let n = fig3_order t order i in
  for j = 0 to n - 1 do
    let e = order.(j) in
    let src = t.edge_src.(e) in
    let src_pe = t.pe.(src) and sent = t.finish.(src) in
    let pair = (src_pe * t.n_pes) + k in
    let h = t.hops.(pair) in
    let duration =
      if src_pe = k || h < 0 then 0.
      else (t.volume.(e) /. t.link_bandwidth) +. (float_of_int (h - 1) *. t.router_latency)
    in
    let start =
      if src_pe = k then sent
      else if h < 0 then begin
        Noc_obs.Counters.add counter (j + 1);
        raise (Unreachable src_pe)
      end
      else
        match t.comm_model with
        | Comm_sched.Fixed_delay -> sent
        | Comm_sched.Contention_aware ->
          window.(0) <- sent;
          window.(1) <- duration;
          Resource_state.reserve_route_gap t.state t.route_tables.(pair) t.route_ids.(pair)
            window;
          window.(0)
    in
    let stop = start +. duration in
    t.tx_start.(e) <- start;
    t.tx_finish.(e) <- stop;
    if stop > !drt then drt := stop
  done;
  if n > 0 then Noc_obs.Counters.add counter n;
  window.(0) <- !drt

(* The time task [i] may start at on [k] given its data-ready time
   [drt]: the later of [drt] and its release time. *)
let[@inline] available task ~drt =
  match task.Noc_ctg.Task.release with
  | Some release when release > drt -> release
  | Some _ | None -> drt

let place t i k =
  (try receive t c_transactions i k
   with Unreachable src_pe ->
     invalid_arg (Printf.sprintf "List_sched.place: no surviving route from %d to %d" src_pe k));
  let task = Noc_ctg.Ctg.task t.ctg i in
  let window = t.window in
  window.(0) <- available task ~drt:window.(0);
  window.(1) <- task.Noc_ctg.Task.exec_times.(k);
  Resource_state.reserve_pe_gap t.state ~pe:k window;
  let start = window.(0) in
  t.pe.(i) <- k;
  t.start.(i) <- start;
  t.finish.(i) <- start +. task.Noc_ctg.Task.exec_times.(k)

(* The paper's tentative F(i,k): the committing walk, then a rollback
   of its reservations and a reset of the windows it recorded. *)
let data_ready t i k =
  Resource_state.set_mark t.state t.probe_mark 0;
  (match receive t c_probe_transactions i k with
  | () -> ()
  | exception Unreachable _ -> t.window.(0) <- infinity);
  Resource_state.rollback_to t.state t.probe_mark 0;
  for j = t.in_start.(i) to t.in_start.(i + 1) - 1 do
    t.tx_start.(t.in_edge.(j)) <- nan;
    t.tx_finish.(t.in_edge.(j)) <- nan
  done

let probe t i k =
  data_ready t i k;
  let drt = t.window.(0) in
  if drt = infinity then infinity
  else begin
    let task = Noc_ctg.Ctg.task t.ctg i in
    t.window.(0) <- available task ~drt;
    t.window.(1) <- task.Noc_ctg.Task.exec_times.(k);
    Resource_state.earliest_pe_gap t.state ~pe:k t.window;
    t.window.(0)
  end

let data_ready_stamp t i k =
  match t.comm_model with
  | Comm_sched.Fixed_delay -> 0
  | Comm_sched.Contention_aware ->
    let stamp = ref 0 and cut = ref false in
    for j = t.in_start.(i) to t.in_start.(i + 1) - 1 do
      let src_pe = t.pe.(t.pred.(j)) in
      if src_pe <> k then begin
        let pair = (src_pe * t.n_pes) + k in
        if t.hops.(pair) < 0 then cut := true
        else begin
          let tables = t.route_tables.(pair) in
          for r = 0 to Array.length tables - 1 do
            stamp := !stamp + Timeline.version tables.(r)
          done
        end
      end
    done;
    if !cut then 0 else !stamp

let schedule_of t ~pe ~start ~finish ~tx_start ~tx_finish =
  let placements =
    Array.init (Array.length pe) (fun i ->
        { Schedule.task = i; pe = pe.(i); start = start.(i); finish = finish.(i) })
  in
  let transactions =
    Array.map
      (fun (e : Noc_ctg.Edge.t) ->
        let src_pe = pe.(e.src) and dst_pe = pe.(e.dst) in
        {
          Schedule.edge = e.id;
          src_pe;
          dst_pe;
          route = t.routes.((src_pe * t.n_pes) + dst_pe);
          start = tx_start.(e.id);
          finish = tx_finish.(e.id);
        })
      (Noc_ctg.Ctg.edges t.ctg)
  in
  Schedule.make ~placements ~transactions

let schedule t =
  schedule_of t ~pe:t.pe ~start:t.start ~finish:t.finish ~tx_start:t.tx_start
    ~tx_finish:t.tx_finish

let lateness (task : Noc_ctg.Task.t) finish =
  match task.deadline with
  | None -> 0.
  | Some d ->
    let late = finish -. d in
    if late > 1e-9 then late else 0.
