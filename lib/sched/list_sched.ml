type t = {
  ctg : Noc_ctg.Ctg.t;
  comm_model : Comm_sched.model option;
  degraded : Noc_noc.Degraded.t option;
  state : Resource_state.t;
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
  incoming : int array;
}

(* Row offsets and flattened entries of a per-task list adjacency. *)
let csr n row =
  let rows = List.init n row in
  let offsets = Array.make (n + 1) 0 in
  List.iteri (fun i r -> offsets.(i + 1) <- offsets.(i) + List.length r) rows;
  (offsets, Array.concat (List.map Array.of_list rows))

let make ?comm_model ?degraded platform ctg =
  let n = Noc_ctg.Ctg.n_tasks ctg and n_edges = Noc_ctg.Ctg.n_edges ctg in
  let edges = Noc_ctg.Ctg.edges ctg in
  let in_start, in_edge =
    csr n (fun i -> List.map (fun (e : Noc_ctg.Edge.t) -> e.id) (Noc_ctg.Ctg.in_edges ctg i))
  in
  let succ_start, succ = csr n (Noc_ctg.Ctg.succs ctg) in
  let max_in = ref 0 in
  for i = 0 to n - 1 do
    max_in := max !max_in (in_start.(i + 1) - in_start.(i))
  done;
  {
    ctg;
    comm_model;
    degraded;
    state = Resource_state.create platform;
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
    incoming = Array.make !max_in 0;
  }

(* Whether edge [e1] is sent before [e2] in the Fig. 3 order. *)
let sent_before t e1 e2 =
  Comm_sched.compare_sends ~finish_a:t.finish.(t.edge_src.(e1)) ~edge_a:e1
    ~finish_b:t.finish.(t.edge_src.(e2)) ~edge_b:e2
  < 0

let place t i k =
  let lo = t.in_start.(i) in
  let m = t.in_start.(i + 1) - lo in
  (* Insertion sort: in-degrees are small. *)
  let incoming = t.incoming in
  for j = 0 to m - 1 do
    let e = t.in_edge.(lo + j) in
    let p = ref j in
    while !p > 0 && sent_before t e incoming.(!p - 1) do
      incoming.(!p) <- incoming.(!p - 1);
      decr p
    done;
    incoming.(!p) <- e
  done;
  let drt = ref 0. in
  for j = 0 to m - 1 do
    let e = incoming.(j) in
    let src = t.edge_src.(e) in
    let window =
      Comm_sched.transmit ?model:t.comm_model ?degraded:t.degraded t.state
        ~src_pe:t.pe.(src) ~dst_pe:k ~sender_finish:t.finish.(src) ~bits:t.volume.(e)
    in
    t.tx_start.(e) <- window.Noc_util.Interval.start;
    t.tx_finish.(e) <- window.Noc_util.Interval.stop;
    drt := Float.max !drt window.Noc_util.Interval.stop
  done;
  let task = Noc_ctg.Ctg.task t.ctg i in
  let exec_time = task.Noc_ctg.Task.exec_times.(k) in
  let available =
    match task.Noc_ctg.Task.release with
    | None -> !drt
    | Some release -> Float.max !drt release
  in
  let start =
    Resource_state.earliest_pe_gap t.state ~pe:k ~after:available ~duration:exec_time
  in
  Resource_state.reserve_pe t.state ~pe:k
    (Noc_util.Interval.make ~start ~stop:(start +. exec_time));
  t.pe.(i) <- k;
  t.start.(i) <- start;
  t.finish.(i) <- start +. exec_time

let probe t i k =
  let mark = Resource_state.mark t.state in
  let undo () =
    Resource_state.rollback t.state mark;
    t.pe.(i) <- -1;
    t.start.(i) <- nan;
    t.finish.(i) <- nan;
    for j = t.in_start.(i) to t.in_start.(i + 1) - 1 do
      t.tx_start.(t.in_edge.(j)) <- nan;
      t.tx_finish.(t.in_edge.(j)) <- nan
    done
  in
  match place t i k with
  | () ->
    let start = t.start.(i) in
    undo ();
    start
  | exception e ->
    undo ();
    raise e

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
