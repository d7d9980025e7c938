(* The list-based Step-3 step as it stood before the flat-array
   rebuild: Rebuild.run over a ready Set, Ctg adjacency lists and
   Comm_sched's route-list transaction placement, kept verbatim over the
   public Resource_state list APIs. Noc_eas.Rebuild and
   Noc_sched.List_sched must agree with it bit for bit. *)

module Schedule = Noc_sched.Schedule
module Comm_sched = Noc_sched.Comm_sched
module Resource_state = Noc_sched.Resource_state

type pending = { edge : int; src_pe : int; sender_finish : float; bits : float }

let place_transaction ?(model = Comm_sched.Contention_aware) ?degraded state
    (pending : pending) ~dst_pe =
  let platform = Resource_state.platform state in
  let src_pe = pending.src_pe in
  if src_pe = dst_pe then
    {
      Schedule.edge = pending.edge;
      src_pe;
      dst_pe;
      route = [ src_pe ];
      start = pending.sender_finish;
      finish = pending.sender_finish;
    }
  else begin
    let route_nodes, links, duration =
      match degraded with
      | Some view when not (Noc_noc.Degraded.is_trivial view) ->
        ( Noc_noc.Degraded.route view ~src:src_pe ~dst:dst_pe,
          Noc_noc.Degraded.route_links view ~src:src_pe ~dst:dst_pe,
          Noc_noc.Degraded.comm_duration view ~src:src_pe ~dst:dst_pe
            ~bits:pending.bits )
      | Some _ | None ->
        ( Noc_noc.Platform.route platform ~src:src_pe ~dst:dst_pe,
          Noc_noc.Platform.route_links platform ~src:src_pe ~dst:dst_pe,
          Noc_noc.Platform.comm_duration platform ~src:src_pe ~dst:dst_pe
            ~bits:pending.bits )
    in
    let start =
      match model with
      | Comm_sched.Fixed_delay -> pending.sender_finish
      | Comm_sched.Contention_aware ->
        Resource_state.earliest_route_gap state ~route:links
          ~after:pending.sender_finish ~duration
    in
    let interval = Noc_util.Interval.make ~start ~stop:(start +. duration) in
    (match model with
    | Comm_sched.Fixed_delay -> ()
    | Comm_sched.Contention_aware ->
      List.iter (fun link -> Resource_state.reserve_link state link interval) links);
    {
      Schedule.edge = pending.edge;
      src_pe;
      dst_pe;
      route = route_nodes;
      start;
      finish = start +. duration;
    }
  end

let sort_pendings lct =
  List.sort
    (fun (a : pending) (b : pending) ->
      let c = Float.compare a.sender_finish b.sender_finish in
      if c <> 0 then c else compare a.edge b.edge)
    lct

let schedule_incoming ?(model = Comm_sched.Contention_aware) ?degraded state lct ~dst_pe =
  let sorted = sort_pendings lct in
  let placed =
    List.map (fun p -> place_transaction ~model ?degraded state p ~dst_pe) sorted
  in
  let drt =
    List.fold_left (fun acc tr -> Float.max acc tr.Schedule.finish) 0. placed
  in
  (placed, drt)

(* Ready tasks keyed by (rank, task); ties on rank fall back to the
   task id. *)
let compare_key (r1, t1) (r2, t2) =
  let c = Int.compare r1 r2 in
  if c <> 0 then c else Int.compare t1 t2

module Ready = Set.Make (struct
  type t = int * int

  let compare = compare_key
end)

type env = {
  comm_model : Comm_sched.model option;
  degraded : Noc_noc.Degraded.t option;
  ctg : Noc_ctg.Ctg.t;
  state : Resource_state.t;
  placements : Schedule.placement array;
  transactions : Schedule.transaction array;
}

let unplaced = { Schedule.task = -1; pe = -1; start = nan; finish = nan }

let untransmitted =
  { Schedule.edge = -1; src_pe = -1; dst_pe = -1; route = []; start = nan; finish = nan }

let make_env ?comm_model ?degraded platform ctg =
  {
    comm_model;
    degraded;
    ctg;
    state = Resource_state.create platform;
    placements = Array.make (Noc_ctg.Ctg.n_tasks ctg) unplaced;
    transactions = Array.make (Noc_ctg.Ctg.n_edges ctg) untransmitted;
  }

let place env ~assignment i =
  let k = assignment.(i) in
  if k < 0 || k >= Noc_noc.Platform.n_pes (Resource_state.platform env.state) then
    invalid_arg "Rebuild.run: PE out of range";
  let pendings =
    List.map
      (fun (e : Noc_ctg.Edge.t) ->
        let p = env.placements.(e.src) in
        {
          edge = e.id;
          src_pe = p.Schedule.pe;
          sender_finish = p.finish;
          bits = e.volume;
        })
      (Noc_ctg.Ctg.in_edges env.ctg i)
  in
  let placed, drt =
    schedule_incoming ?model:env.comm_model ?degraded:env.degraded env.state pendings
      ~dst_pe:k
  in
  let task = Noc_ctg.Ctg.task env.ctg i in
  let exec_time = task.Noc_ctg.Task.exec_times.(k) in
  let available =
    match task.Noc_ctg.Task.release with
    | None -> drt
    | Some release -> Float.max drt release
  in
  let start =
    Resource_state.earliest_pe_gap env.state ~pe:k ~after:available ~duration:exec_time
  in
  Resource_state.reserve_pe env.state ~pe:k
    (Noc_util.Interval.make ~start ~stop:(start +. exec_time));
  env.placements.(i) <- { Schedule.task = i; pe = k; start; finish = start +. exec_time };
  List.iter (fun (tr : Schedule.transaction) -> env.transactions.(tr.edge) <- tr) placed

let walk env ~assignment ~rank ~ready ~waiting =
  let n = Noc_ctg.Ctg.n_tasks env.ctg in
  let rec go ready s =
    if s < n then begin
      let ((_, i) as elt) = Ready.min_elt ready in
      let ready = Ready.remove elt ready in
      place env ~assignment i;
      let ready =
        List.fold_left
          (fun ready j ->
            waiting.(j) <- waiting.(j) - 1;
            if waiting.(j) = 0 then Ready.add (rank.(j), j) ready else ready)
          ready (Noc_ctg.Ctg.succs env.ctg i)
      in
      go ready (s + 1)
    end
  in
  go ready 0

let sources ~rank ~waiting =
  let ready = ref Ready.empty in
  Array.iteri
    (fun i w -> if w = 0 then ready := Ready.add (rank.(i), i) !ready)
    waiting;
  !ready

let in_degrees ctg =
  Array.init (Noc_ctg.Ctg.n_tasks ctg) (fun i -> List.length (Noc_ctg.Ctg.preds ctg i))

let run ?comm_model ?degraded platform ctg ~assignment ~rank =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  if not (Array.length assignment = n && Array.length rank = n) then
    invalid_arg "Rebuild.run: array length mismatch";
  let env = make_env ?comm_model ?degraded platform ctg in
  let waiting = in_degrees ctg in
  walk env ~assignment ~rank ~ready:(sources ~rank ~waiting) ~waiting;
  Schedule.make ~placements:env.placements ~transactions:env.transactions
