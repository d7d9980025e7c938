module Timeline = Noc_util.Timeline

type t = {
  ctg : Noc_ctg.Ctg.t;
  comm_model : Comm_sched.model;
  degraded : Noc_noc.Degraded.t option;
  state : Resource_state.t;
  n_pes : int;
  hops : int array;
  route_tables : Timeline.t array array;
  link_bandwidth : float;
  router_latency : float;
  in_start : int array;
  in_edge : int array;
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

(* Row offsets and flattened entries of a per-task list adjacency. *)
let csr n row =
  let rows = List.init n row in
  let offsets = Array.make (n + 1) 0 in
  List.iteri (fun i r -> offsets.(i + 1) <- offsets.(i) + List.length r) rows;
  (offsets, Array.concat (List.map Array.of_list rows))

let make ?(comm_model = Comm_sched.Contention_aware) ?degraded platform ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg and n_edges = Noc_ctg.Ctg.n_edges ctg in
  let edges = Noc_ctg.Ctg.edges ctg in
  let in_start, in_edge =
    csr n (fun i -> List.map (fun (e : Noc_ctg.Edge.t) -> e.id) (Noc_ctg.Ctg.in_edges ctg i))
  in
  let succ_start, succ = csr n (Noc_ctg.Ctg.succs ctg) in
  let state = Resource_state.create platform in
  (* The route lookup, filled for every pair up front so that read-only
     walks on pool workers never write it. A trivial view mirrors the
     platform. *)
  let n_pes = Noc_noc.Platform.n_pes platform in
  let hops = Array.make (n_pes * n_pes) (-1) in
  let route_tables = Array.make (n_pes * n_pes) [||] in
  let tables links = Array.of_list (List.map (Resource_state.link_table state) links) in
  for src = 0 to n_pes - 1 do
    for dst = 0 to n_pes - 1 do
      let idx = (src * n_pes) + dst in
      match degraded with
      | Some view when not (Noc_noc.Degraded.is_trivial view) -> (
        match Noc_noc.Degraded.route_opt view ~src ~dst with
        | None -> ()
        | Some route ->
          hops.(idx) <- Noc_noc.Platform.route_hops route;
          route_tables.(idx) <- tables (Noc_noc.Degraded.route_links view ~src ~dst))
      | Some _ | None ->
        hops.(idx) <- Noc_noc.Platform.hops platform ~src ~dst;
        route_tables.(idx) <- tables (Noc_noc.Platform.route_links platform ~src ~dst)
    done
  done;
  {
    ctg;
    comm_model;
    degraded;
    state;
    n_pes;
    hops;
    route_tables;
    link_bandwidth = Noc_noc.Platform.link_bandwidth platform;
    router_latency = Noc_noc.Platform.router_latency platform;
    in_start;
    in_edge;
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

(* Task [i]'s in-edges in the Fig. 3 order, insertion-sorted (in-degrees
   are small) into a fresh array, so concurrent walks share nothing. *)
let fig3_order t i =
  let lo = t.in_start.(i) in
  let order = Array.sub t.in_edge lo (t.in_start.(i + 1) - lo) in
  let sent_before e1 e2 =
    Comm_sched.compare_sends ~finish_a:t.finish.(t.edge_src.(e1)) ~edge_a:e1
      ~finish_b:t.finish.(t.edge_src.(e2)) ~edge_b:e2
    < 0
  in
  for j = 1 to Array.length order - 1 do
    let e = order.(j) in
    let p = ref j in
    while !p > 0 && sent_before e order.(!p - 1) do
      order.(!p) <- order.(!p - 1);
      decr p
    done;
    order.(!p) <- e
  done;
  order

(* A read-only walk reserves each window in private timelines, one per
   shared link table it would have written, and asks later transactions
   for gaps free on the shared table and its private one alike: the
   merged busy set a committing walk sees. [Timeline.earliest_gap_multi]
   does not depend on how a busy set is split across tables, so the
   windows are the committing walk's, bit for bit. *)
type overlay = (Timeline.t * Timeline.t) list ref

(* The tables a read-only window on [route] must be free on: the route's
   tables, then the private ones the walk reserved on among them. *)
let with_overlay (ov : overlay) route =
  match !ov with
  | [] -> route
  | reserved ->
    Array.append route
      (Array.of_list
         (List.filter_map
            (fun (tl, mine) -> if Array.memq tl route then Some mine else None)
            reserved))

let reserve_overlay (ov : overlay) route interval =
  Array.iter
    (fun tl ->
      let mine =
        match List.assq_opt tl !ov with
        | Some mine -> mine
        | None ->
          let mine = Timeline.create () in
          ov := (tl, mine) :: !ov;
          mine
      in
      Timeline.reserve mine interval)
    route

(* The one Fig. 3 walk: sends task [i]'s in-edges to PE [k] in the Fig. 3
   order and returns the data-ready time, the latest arrival ([0.] for
   none). Committing, each window is reserved through the journal and
   recorded in [tx_start]/[tx_finish], and a sender that cannot reach [k]
   raises. Read-only, the walk writes nothing shared and such a sender
   makes the data-ready time [infinity]. *)
let receive t ~commit i k =
  let order = fig3_order t i in
  let last = Array.length order - 1 in
  let ov : overlay = ref [] in
  let arrive e start stop =
    if commit then begin
      t.tx_start.(e) <- start;
      t.tx_finish.(e) <- stop
    end;
    stop
  in
  let rec go j drt =
    if j > last then drt
    else begin
      let e = order.(j) in
      let src = t.edge_src.(e) in
      let src_pe = t.pe.(src) and sent = t.finish.(src) in
      Noc_obs.Counters.incr (if commit then c_transactions else c_probe_transactions);
      let pair = (src_pe * t.n_pes) + k in
      let h = t.hops.(pair) in
      if src_pe = k then go (j + 1) (Float.max drt (arrive e sent sent))
      else if h < 0 then
        if commit then
          invalid_arg
            (Printf.sprintf "List_sched.place: no surviving route from %d to %d" src_pe k)
        else infinity
      else begin
        let duration =
          (t.volume.(e) /. t.link_bandwidth) +. (float_of_int (h - 1) *. t.router_latency)
        in
        let route = t.route_tables.(pair) in
        let start =
          match t.comm_model with
          | Comm_sched.Fixed_delay -> sent
          | Comm_sched.Contention_aware when commit ->
            (Resource_state.reserve_route_gap t.state route ~after:sent ~duration)
              .Noc_util.Interval.start
          | Comm_sched.Contention_aware ->
            let start =
              Timeline.earliest_gap_multi (with_overlay ov route) ~after:sent ~duration
            in
            (* Only the walk's later transactions read the overlay. *)
            if j < last then
              reserve_overlay ov route
                (Noc_util.Interval.make ~start ~stop:(start +. duration));
            start
        in
        go (j + 1) (Float.max drt (arrive e start (start +. duration)))
      end
    end
  in
  go 0 0.

(* The earliest start of task [i] on [k]'s table at or after [drt] and
   its release time. *)
let earliest_start t i k ~drt =
  let task = Noc_ctg.Ctg.task t.ctg i in
  let available =
    match task.Noc_ctg.Task.release with
    | None -> drt
    | Some release -> Float.max drt release
  in
  Resource_state.earliest_pe_gap t.state ~pe:k ~after:available
    ~duration:task.Noc_ctg.Task.exec_times.(k)

let place t i k =
  let drt = receive t ~commit:true i k in
  let start = earliest_start t i k ~drt in
  let finish = start +. (Noc_ctg.Ctg.task t.ctg i).Noc_ctg.Task.exec_times.(k) in
  Resource_state.reserve_pe t.state ~pe:k (Noc_util.Interval.make ~start ~stop:finish);
  t.pe.(i) <- k;
  t.start.(i) <- start;
  t.finish.(i) <- finish

let data_ready t i k = receive t ~commit:false i k

let probe t i k =
  let drt = data_ready t i k in
  if drt = infinity then infinity else earliest_start t i k ~drt

let data_ready_tables t i k =
  let routes = ref [] and cut = ref false in
  for j = t.in_start.(i) to t.in_start.(i + 1) - 1 do
    let src_pe = t.pe.(t.pred.(j)) in
    if src_pe <> k then begin
      let pair = (src_pe * t.n_pes) + k in
      if t.hops.(pair) < 0 then cut := true;
      routes := t.route_tables.(pair) :: !routes
    end
  done;
  match t.comm_model with
  | Comm_sched.Contention_aware when not !cut -> Array.concat !routes
  | Comm_sched.Contention_aware | Comm_sched.Fixed_delay -> [||]

let schedule t =
  let platform = Resource_state.platform t.state in
  let placements =
    Array.init (Array.length t.pe) (fun i ->
        { Schedule.task = i; pe = t.pe.(i); start = t.start.(i); finish = t.finish.(i) })
  in
  let transactions =
    Array.map
      (fun (e : Noc_ctg.Edge.t) ->
        let src_pe = t.pe.(e.src) and dst_pe = t.pe.(e.dst) in
        {
          Schedule.edge = e.id;
          src_pe;
          dst_pe;
          route = Comm_sched.route ?degraded:t.degraded platform ~src_pe ~dst_pe;
          start = t.tx_start.(e.id);
          finish = t.tx_finish.(e.id);
        })
      (Noc_ctg.Ctg.edges t.ctg)
  in
  Schedule.make ~placements ~transactions

let lateness (task : Noc_ctg.Task.t) finish =
  match task.deadline with
  | None -> 0.
  | Some d ->
    let late = finish -. d in
    if late > 1e-9 then late else 0.
