(* Frozen copy of Noc_sim.Executor as it stood before the replay moved
   onto flat arrays: the pending list sorted by polymorphic comparison
   of (eligible, edge) tuples, route links re-derived per dispatch pass,
   PE queues from Schedule.tasks_on_pe and a polymorphic event heap.
   Kept verbatim below the module aliases; the aliases stand in for the
   sibling module it used and for the fault-set query that has since
   left Fault_set. Noc_sim.Executor must reproduce every outcome field
   and the sim.* counter totals. *)

module Event_queue = Event_queue_reference

module Fault_set = struct
  include Noc_fault.Fault_set

  let route_failed_at t ~links ~time =
    List.exists (fun link -> link_failed_at t ~link ~time) links
end

module Schedule = Noc_sched.Schedule

type discipline = Time_triggered | Self_timed

type event = Task_finished of int | Transaction_finished of int | Wake

type pending = { edge : int; eligible : float }

type state = {
  platform : Noc_noc.Platform.t;
  ctg : Noc_ctg.Ctg.t;
  discipline : discipline;
  faults : Fault_set.t;
  assignment : int array;
  routes : int list array;  (* the schedule's recorded route per edge *)
  planned_task_start : float array;
  planned_tr_start : float array;
  pe_queues : int list array;  (* remaining issue order per PE *)
  pe_busy : bool array;
  running : int option array;  (* task currently executing per PE *)
  killed : bool array;  (* tasks lost to a PE fault mid-execution *)
  link_busy : bool array;  (* indexed src * n + dst *)
  inputs_remaining : int array;
  mutable pending : pending list;  (* sorted by (eligible, edge) *)
  events : event Event_queue.t;
  task_start : float array;
  task_finish : float array;
  tr_start : float array;
  tr_finish : float array;
  edge_waiting : float array;
  mutable waiting_time : float;
  mutable finished_tasks : int;
}

let link_index st (l : Noc_noc.Routing.link) =
  (l.from_node * Noc_noc.Platform.n_pes st.platform) + l.to_node

let route_free st links = List.for_all (fun l -> not st.link_busy.(link_index st l)) links

let set_route st links busy =
  List.iter (fun l -> st.link_busy.(link_index st l) <- busy) links

let insert_pending st p ~time =
  let rec insert = function
    | [] -> [ p ]
    | hd :: tl ->
      if (p.eligible, p.edge) < (hd.eligible, hd.edge) then p :: hd :: tl
      else hd :: insert tl
  in
  st.pending <- insert st.pending;
  (* A future release needs a wake-up, or the grant pass never sees it. *)
  if p.eligible > time then Event_queue.push st.events ~time:p.eligible Wake

let edge_route st e = st.routes.(e)

let edge_duration st e =
  let edge = Noc_ctg.Ctg.edge st.ctg e in
  Noc_noc.Platform.route_duration st.platform ~route:st.routes.(e)
    ~bits:edge.Noc_ctg.Edge.volume

let deliver st e =
  let edge = Noc_ctg.Ctg.edge st.ctg e in
  st.inputs_remaining.(edge.Noc_ctg.Edge.dst) <-
    st.inputs_remaining.(edge.Noc_ctg.Edge.dst) - 1

(* A PE fault strikes mid-execution: the task in flight is lost. Its
   scheduled [Task_finished] event stays in the queue but is ignored. *)
let kill_faulted_work st ~time =
  Array.iteri
    (fun pe task ->
      match task with
      | Some t when Fault_set.pe_failed_at st.faults ~pe ~time ->
        st.killed.(t) <- true;
        st.running.(pe) <- None;
        st.pe_busy.(pe) <- false;
        st.task_finish.(t) <- nan
      | Some _ | None -> ())
    st.running

let c_events = Noc_obs.Counters.counter "sim.events"
let c_granted = Noc_obs.Counters.counter "sim.transactions_granted"
let c_issued = Noc_obs.Counters.counter "sim.tasks_issued"

(* One pass of the dispatch rules at the current instant; returns true
   when something started (so the caller loops to a fixpoint). *)
let try_dispatch st ~time =
  let started = ref false in
  (* Grant eligible transactions first-come-first-served. A transaction
     cannot enter a route any of whose links is currently failed; it
     stalls in the sender's buffer until the fault clears (never, for a
     permanent fault). A transaction already in flight when a link fails
     is not torn down — faults gate entry, a wormhole simplification. *)
  let still_pending =
    List.filter
      (fun p ->
        let links = Noc_noc.Routing.links_of_route (edge_route st p.edge) in
        if
          p.eligible <= time && route_free st links
          && not (Fault_set.route_failed_at st.faults ~links ~time)
        then begin
          set_route st links true;
          let duration = edge_duration st p.edge in
          st.tr_start.(p.edge) <- time;
          st.tr_finish.(p.edge) <- time +. duration;
          st.edge_waiting.(p.edge) <- time -. p.eligible;
          st.waiting_time <- st.waiting_time +. (time -. p.eligible);
          Event_queue.push st.events ~time:(time +. duration)
            (Transaction_finished p.edge);
          Noc_obs.Counters.incr c_granted;
          started := true;
          false
        end
        else true)
      st.pending
  in
  st.pending <- still_pending;
  (* Issue PE queue heads whose inputs have all arrived. A failed PE
     issues nothing while its fault is active; recovery is retried at
     the fault-window boundaries (wake events pushed up front). *)
  for pe = 0 to Noc_noc.Platform.n_pes st.platform - 1 do
    match st.pe_queues.(pe) with
    | head :: rest
      when (not st.pe_busy.(pe))
           && st.inputs_remaining.(head) = 0
           && not (Fault_set.pe_failed_at st.faults ~pe ~time) ->
      let task_release =
        match (Noc_ctg.Ctg.task st.ctg head).Noc_ctg.Task.release with
        | None -> time
        | Some r -> Float.max time r
      in
      let release =
        match st.discipline with
        | Self_timed -> task_release
        | Time_triggered -> Float.max task_release st.planned_task_start.(head)
      in
      if release > time then Event_queue.push st.events ~time:release Wake
      else begin
        st.pe_queues.(pe) <- rest;
        st.pe_busy.(pe) <- true;
        st.running.(pe) <- Some head;
        let exec = (Noc_ctg.Ctg.task st.ctg head).Noc_ctg.Task.exec_times.(pe) in
        st.task_start.(head) <- time;
        st.task_finish.(head) <- time +. exec;
        Event_queue.push st.events ~time:(time +. exec) (Task_finished head);
        Noc_obs.Counters.incr c_issued;
        started := true
      end
    | _ :: _ | [] -> ()
  done;
  !started

let rec dispatch_fixpoint st ~time = if try_dispatch st ~time then dispatch_fixpoint st ~time

type outcome = {
  realised : Noc_sched.Schedule.t;
  waiting_time : float;
  edge_waiting : float array;
  lost_tasks : int list;
  deadline_misses : int list;
}

let run ?(discipline = Time_triggered) ?(faults = Fault_set.empty) platform ctg schedule
    =
  Noc_obs.Trace.span ~cat:"sim" "sim/execute"
    ~args:(fun () ->
      [
        ("tasks", Noc_obs.Trace.Int (Noc_ctg.Ctg.n_tasks ctg));
        ("faults", Noc_obs.Trace.Bool (not (Fault_set.is_empty faults)));
      ])
  @@ fun () ->
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let assignment = Array.init n (fun i -> (Schedule.placement schedule i).Schedule.pe) in
  let st =
    {
      platform;
      ctg;
      discipline;
      faults;
      assignment;
      routes =
        Array.init
          (Noc_ctg.Ctg.n_edges ctg)
          (fun e -> (Schedule.transaction schedule e).Schedule.route);
      planned_task_start =
        Array.init n (fun i -> (Schedule.placement schedule i).Schedule.start);
      planned_tr_start =
        Array.init
          (Noc_ctg.Ctg.n_edges ctg)
          (fun e -> (Schedule.transaction schedule e).Schedule.start);
      pe_queues =
        Array.init n_pes (fun pe ->
            List.map
              (fun (p : Schedule.placement) -> p.task)
              (Schedule.tasks_on_pe schedule ~pe));
      pe_busy = Array.make n_pes false;
      running = Array.make n_pes None;
      killed = Array.make n false;
      link_busy = Array.make (n_pes * n_pes) false;
      inputs_remaining = Array.init n (fun i -> List.length (Noc_ctg.Ctg.preds ctg i));
      pending = [];
      events = Event_queue.create ();
      task_start = Array.make n nan;
      task_finish = Array.make n nan;
      tr_start = Array.make (Noc_ctg.Ctg.n_edges ctg) nan;
      tr_finish = Array.make (Noc_ctg.Ctg.n_edges ctg) nan;
      edge_waiting = Array.make (Noc_ctg.Ctg.n_edges ctg) 0.;
      waiting_time = 0.;
      finished_tasks = 0;
    }
  in
  (* Fault-window edges are the instants at which stalled work must be
     re-examined: a recovering link can grant, a recovering PE can
     issue, an onset must kill the task in flight. *)
  List.iter
    (fun boundary -> Event_queue.push st.events ~time:boundary Wake)
    (Fault_set.boundaries faults);
  dispatch_fixpoint st ~time:0.;
  let rec loop () =
    match Event_queue.pop st.events with
    | None -> ()
    | Some (time, event) ->
      Noc_obs.Counters.incr c_events;
      kill_faulted_work st ~time;
      (match event with
      | Task_finished t when st.killed.(t) -> ()
      | Task_finished t ->
        st.finished_tasks <- st.finished_tasks + 1;
        st.pe_busy.(assignment.(t)) <- false;
        st.running.(assignment.(t)) <- None;
        List.iter
          (fun (e : Noc_ctg.Edge.t) ->
            let dst_pe = assignment.(e.dst) in
            if dst_pe = assignment.(t) || edge_duration st e.id = 0. then begin
              (* Local or zero-volume transfer: instantaneous. *)
              st.tr_start.(e.id) <- time;
              st.tr_finish.(e.id) <- time;
              deliver st e.id
            end
            else begin
              let eligible =
                match st.discipline with
                | Self_timed -> time
                | Time_triggered -> Float.max time st.planned_tr_start.(e.id)
              in
              insert_pending st { edge = e.id; eligible } ~time
            end)
          (Noc_ctg.Ctg.out_edges ctg t)
      | Transaction_finished e ->
        set_route st (Noc_noc.Routing.links_of_route (edge_route st e)) false;
        deliver st e
      | Wake -> ());
      dispatch_fixpoint st ~time;
      loop ()
  in
  loop ();
  if Fault_set.is_empty faults then assert (st.finished_tasks = n);
  let finite v = if Float.is_nan v then infinity else v in
  let placements =
    Array.init n (fun i ->
        {
          Schedule.task = i;
          pe = assignment.(i);
          start = finite st.task_start.(i);
          finish = finite st.task_finish.(i);
        })
  in
  let transactions =
    Array.init (Noc_ctg.Ctg.n_edges ctg) (fun e ->
        let edge = Noc_ctg.Ctg.edge ctg e in
        {
          Schedule.edge = e;
          src_pe = assignment.(edge.Noc_ctg.Edge.src);
          dst_pe = assignment.(edge.Noc_ctg.Edge.dst);
          route = edge_route st e;
          start = finite st.tr_start.(e);
          finish = finite st.tr_finish.(e);
        })
  in
  let lost_tasks =
    List.filter
      (fun i -> Float.is_nan st.task_finish.(i))
      (List.init n Fun.id)
  in
  let deadline_misses =
    List.filter
      (fun i ->
        match (Noc_ctg.Ctg.task ctg i).Noc_ctg.Task.deadline with
        | None -> false
        | Some deadline ->
          let f = st.task_finish.(i) in
          Float.is_nan f || f > deadline +. 1e-9)
      (List.init n Fun.id)
  in
  {
    realised = Schedule.make ~placements ~transactions;
    waiting_time = st.waiting_time;
    edge_waiting = st.edge_waiting;
    lost_tasks;
    deadline_misses;
  }
