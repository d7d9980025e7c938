module Schedule = Noc_sched.Schedule
module Fault_set = Noc_fault.Fault_set
module Ctg = Noc_ctg.Ctg

type discipline = Time_triggered | Self_timed

(* The replay runs on arrays sized once per run and reads the schedule's
   and the graph's own arrays in place. Each edge's duration is computed
   once; the pending transactions are two parallel arrays kept in
   (eligible, edge) order; the per-PE issue orders are one array of task
   ids, PE by PE. A route's links are read off its recorded node list,
   which allocates nothing. Events travel through the queue as ints: [t]
   is task [t]'s finish, [n_tasks + e] edge [e]'s transaction finish and
   [wake] a wake-up that only re-runs the dispatch rules. *)
let wake = -1

type state = {
  ctg : Ctg.t;
  edges : Noc_ctg.Edge.t array;
  placements : Schedule.placement array;  (* the schedule's: planned starts, PEs *)
  transactions : Schedule.transaction array;  (* the schedule's: recorded routes *)
  n_tasks : int;
  n_pes : int;
  discipline : discipline;
  faults : Fault_set.t;
  faulty_pe : bool array;  (* PEs some fault fails at some time *)
  link_faults : bool;  (* whether any fault fails a link *)
  assignment : int array;
  duration : float array;  (* per edge, over its recorded route *)
  queue : int array;  (* the issue order, PE by PE *)
  queue_next : int array;  (* per PE, the position of its next task in [queue] *)
  queue_end : int array;
  pe_busy : bool array;
  running : int array;  (* task currently executing per PE, or -1 *)
  killed : bool array;  (* tasks lost to a PE fault mid-execution; empty without faults *)
  link_busy : bool array;  (* indexed src * n_pes + dst *)
  inputs_remaining : int array;
  mutable pending_edge : int array;  (* the first [n_pending] slots, sorted by (eligible, edge) *)
  mutable pending_eligible : float array;
  mutable n_pending : int;
  wakes : float array;  (* the first [n_wakes]: the PE wake-ups of this instant's pass *)
  mutable n_wakes : int;
  events : Event_queue.t;
  task_start : float array;
  task_finish : float array;
  tr_start : float array;
  tr_finish : float array;
  edge_waiting : float array;
  mutable waiting_time : float;
  mutable finished_tasks : int;
}

let rec route_free busy n = function
  | a :: (b :: _ as rest) -> (not busy.((a * n) + b)) && route_free busy n rest
  | [ _ ] | [] -> true

let rec set_route busy n value = function
  | a :: (b :: _ as rest) ->
    busy.((a * n) + b) <- value;
    set_route busy n value rest
  | [ _ ] | [] -> ()

let route_failed st e ~time =
  st.link_faults
  && List.exists
       (fun link -> Fault_set.link_failed_at st.faults ~link ~time)
       (Noc_noc.Routing.links_of_route st.transactions.(e).route)

let[@inline] pe_failed st pe ~time = st.faulty_pe.(pe) && Fault_set.pe_failed_at st.faults ~pe ~time

(* Inserts before the first entry that (eligible, edge) precedes in
   lexicographic order; a comparison with a [nan] eligible is false, so
   such an entry precedes nothing and nothing precedes it. *)
let insert_pending st e eligible ~time =
  let n = st.n_pending in
  if n = Array.length st.pending_edge then begin
    let capacity = Int.max 16 (2 * n) in
    let edges = Array.make capacity 0 and eligibles = Array.make capacity 0. in
    Array.blit st.pending_edge 0 edges 0 n;
    Array.blit st.pending_eligible 0 eligibles 0 n;
    st.pending_edge <- edges;
    st.pending_eligible <- eligibles
  end;
  let j = ref 0 in
  while
    !j < n
    &&
    let other = st.pending_eligible.(!j) in
    not (eligible < other || (eligible = other && e < st.pending_edge.(!j)))
  do
    incr j
  done;
  for k = n downto !j + 1 do
    st.pending_edge.(k) <- st.pending_edge.(k - 1);
    st.pending_eligible.(k) <- st.pending_eligible.(k - 1)
  done;
  st.pending_edge.(!j) <- e;
  st.pending_eligible.(!j) <- eligible;
  st.n_pending <- n + 1;
  (* A future release needs a wake-up, or the grant pass never sees it. *)
  if eligible > time then Event_queue.push st.events ~time:eligible wake

let deliver st e =
  let dst = st.edges.(e).dst in
  st.inputs_remaining.(dst) <- st.inputs_remaining.(dst) - 1

(* A PE fault strikes mid-execution: the task in flight is lost. Its
   scheduled finish event stays in the queue but is ignored. *)
let kill_faulted_work st ~time =
  for pe = 0 to st.n_pes - 1 do
    let t = st.running.(pe) in
    if t >= 0 && pe_failed st pe ~time then begin
      st.killed.(t) <- true;
      st.running.(pe) <- -1;
      st.pe_busy.(pe) <- false;
      st.task_finish.(t) <- nan
    end
  done

let c_events = Noc_obs.Counters.counter "sim.events"
let c_granted = Noc_obs.Counters.counter "sim.transactions_granted"
let c_issued = Noc_obs.Counters.counter "sim.tasks_issued"

(* One pass of the dispatch rules at the current instant; returns true
   when something started. *)
let try_dispatch st ~time =
  let started = ref false in
  st.n_wakes <- 0;
  (* Grant eligible transactions first-come-first-served. A transaction
     cannot enter a route any of whose links is currently failed; it
     stalls in the sender's buffer until the fault clears (never, for a
     permanent fault). A transaction already in flight when a link fails
     is not torn down — faults gate entry, a wormhole simplification.
     Entries are eligible in order, so the pass stops at the first one
     released after [time]; the rest stay, in order. *)
  let n = st.n_pending in
  let kept = ref 0 and j = ref 0 in
  while !j < n && not (st.pending_eligible.(!j) > time) do
    let e = st.pending_edge.(!j) and eligible = st.pending_eligible.(!j) in
    let route = st.transactions.(e).route in
    if
      eligible <= time
      && route_free st.link_busy st.n_pes route
      && not (route_failed st e ~time)
    then begin
      set_route st.link_busy st.n_pes true route;
      let finish = time +. st.duration.(e) in
      st.tr_start.(e) <- time;
      st.tr_finish.(e) <- finish;
      st.edge_waiting.(e) <- time -. eligible;
      st.waiting_time <- st.waiting_time +. (time -. eligible);
      Event_queue.push st.events ~time:finish (st.n_tasks + e);
      Noc_obs.Counters.incr c_granted;
      started := true
    end
    else begin
      st.pending_edge.(!kept) <- e;
      st.pending_eligible.(!kept) <- eligible;
      incr kept
    end;
    incr j
  done;
  if !kept < !j then begin
    Array.blit st.pending_edge !j st.pending_edge !kept (n - !j);
    Array.blit st.pending_eligible !j st.pending_eligible !kept (n - !j)
  end;
  st.n_pending <- !kept + (n - !j);
  (* Issue PE queue heads whose inputs have all arrived. A failed PE
     issues nothing while its fault is active; recovery is retried at
     the fault-window boundaries (wake events pushed up front). *)
  for pe = 0 to st.n_pes - 1 do
    let q = st.queue_next.(pe) in
    if q < st.queue_end.(pe) && not st.pe_busy.(pe) then begin
      let head = st.queue.(q) in
      if st.inputs_remaining.(head) = 0 && not (pe_failed st pe ~time) then begin
        let task = Ctg.task st.ctg head in
        let task_release =
          match task.Noc_ctg.Task.release with None -> time | Some r -> Float.max time r
        in
        let release =
          match st.discipline with
          | Self_timed -> task_release
          | Time_triggered -> Float.max task_release st.placements.(head).start
        in
        if release > time then begin
          Event_queue.push st.events ~time:release wake;
          st.wakes.(st.n_wakes) <- release;
          st.n_wakes <- st.n_wakes + 1
        end
        else begin
          st.queue_next.(pe) <- q + 1;
          st.pe_busy.(pe) <- true;
          st.running.(pe) <- head;
          let finish = time +. task.Noc_ctg.Task.exec_times.(pe) in
          st.task_start.(head) <- time;
          st.task_finish.(head) <- finish;
          Event_queue.push st.events ~time:finish head;
          Noc_obs.Counters.incr c_issued;
          started := true
        end
      end
    end
  done;
  !started

(* The dispatch rules run to a fixpoint at one instant: passes repeat
   until one starts nothing. Within an instant nothing is delivered and
   no link is freed, so a transaction or a PE queue head that one pass
   leaves waiting, the next leaves waiting too, and a PE head that one
   pass issues is busy in the next. A second pass therefore starts
   nothing; all it does is push again, in PE order, the wake-ups the
   first pushed for heads whose release is still ahead. *)
let dispatch_fixpoint st ~time =
  if try_dispatch st ~time then
    for w = 0 to st.n_wakes - 1 do
      Event_queue.push st.events ~time:st.wakes.(w) wake
    done

(* A task finished: its out-edges either deliver at once (same tile or
   nothing to send) or wait for a grant. *)
let task_finished st t ~time =
  st.finished_tasks <- st.finished_tasks + 1;
  let pe = st.assignment.(t) in
  st.pe_busy.(pe) <- false;
  st.running.(pe) <- -1;
  List.iter
    (fun (edge : Noc_ctg.Edge.t) ->
      let e = edge.id in
      if st.assignment.(edge.dst) = pe || st.duration.(e) = 0. then begin
        (* Local or zero-volume transfer: instantaneous. *)
        st.tr_start.(e) <- time;
        st.tr_finish.(e) <- time;
        deliver st e
      end
      else begin
        let eligible =
          match st.discipline with
          | Self_timed -> time
          | Time_triggered -> Float.max time st.transactions.(e).start
        in
        insert_pending st e eligible ~time
      end)
    (Ctg.out_edges st.ctg t)

type outcome = {
  realised : Noc_sched.Schedule.t;
  waiting_time : float;
  edge_waiting : float array;
  lost_tasks : int list;
  deadline_misses : int list;
}

(* The per-PE issue order: each PE's tasks by planned start, ties by
   task id (the order of [Schedule.tasks_on_pe]). A counting sort on the
   PE, then a stable sort of each PE's run. Returns the queue, PE by PE,
   and where each PE's run starts and ends in it. *)
let issue_order ~n_tasks ~n_pes placements =
  let on_chip (p : Schedule.placement) = p.pe >= 0 && p.pe < n_pes in
  let first = Array.make (n_pes + 1) 0 in
  for i = 0 to n_tasks - 1 do
    let p = placements.(i) in
    if on_chip p then first.(p.pe + 1) <- first.(p.pe + 1) + 1
  done;
  for pe = 1 to n_pes do
    first.(pe) <- first.(pe) + first.(pe - 1)
  done;
  let queue = Array.make first.(n_pes) 0 and last = Array.sub first 0 n_pes in
  for i = 0 to n_tasks - 1 do
    let p = placements.(i) in
    if on_chip p then begin
      queue.(last.(p.pe)) <- i;
      last.(p.pe) <- last.(p.pe) + 1
    end
  done;
  let by_start a b = Float.compare placements.(a).Schedule.start placements.(b).Schedule.start in
  for pe = 0 to n_pes - 1 do
    let run = Array.sub queue first.(pe) (last.(pe) - first.(pe)) in
    Array.stable_sort by_start run;
    Array.blit run 0 queue first.(pe) (Array.length run)
  done;
  (queue, Array.sub first 0 n_pes, last)

let run ?(discipline = Time_triggered) ?(faults = Fault_set.empty) platform ctg schedule
    =
  Noc_obs.Trace.span ~cat:"sim" "sim/execute"
    ~args:(fun () ->
      [
        ("tasks", Noc_obs.Trace.Int (Ctg.n_tasks ctg));
        ("faults", Noc_obs.Trace.Bool (not (Fault_set.is_empty faults)));
      ])
  @@ fun () ->
  let n = Ctg.n_tasks ctg and n_edges = Ctg.n_edges ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let placements = Schedule.placements schedule in
  let transactions = Schedule.transactions schedule in
  let edges = Ctg.edges ctg in
  let assignment = Array.init n (fun i -> placements.(i).Schedule.pe) in
  let has_faults = not (Fault_set.is_empty faults) in
  let faulty_pe = Array.make n_pes false in
  List.iter
    (fun pe -> if pe >= 0 && pe < n_pes then faulty_pe.(pe) <- true)
    (Fault_set.failed_pes faults);
  let inputs_remaining = Array.make n 0 in
  Array.iter
    (fun (e : Noc_ctg.Edge.t) -> inputs_remaining.(e.dst) <- inputs_remaining.(e.dst) + 1)
    edges;
  let queue, queue_next, queue_end = issue_order ~n_tasks:n ~n_pes placements in
  let st =
    {
      ctg;
      edges;
      placements;
      transactions;
      n_tasks = n;
      n_pes;
      discipline;
      faults;
      faulty_pe;
      link_faults = Fault_set.failed_links faults <> [];
      assignment;
      duration =
        Array.init n_edges (fun e ->
            Noc_noc.Platform.route_duration platform ~route:transactions.(e).route
              ~bits:edges.(e).volume);
      queue;
      queue_next;
      queue_end;
      pe_busy = Array.make n_pes false;
      running = Array.make n_pes (-1);
      killed = Array.make (if has_faults then n else 0) false;
      link_busy = Array.make (n_pes * n_pes) false;
      inputs_remaining;
      pending_edge = [||];
      pending_eligible = [||];
      n_pending = 0;
      wakes = Array.make n_pes 0.;
      n_wakes = 0;
      events = Event_queue.create ();
      task_start = Array.make n nan;
      task_finish = Array.make n nan;
      tr_start = Array.make n_edges nan;
      tr_finish = Array.make n_edges nan;
      edge_waiting = Array.make n_edges 0.;
      waiting_time = 0.;
      finished_tasks = 0;
    }
  in
  (* Fault-window edges are the instants at which stalled work must be
     re-examined: a recovering link can grant, a recovering PE can
     issue, an onset must kill the task in flight. *)
  List.iter
    (fun boundary -> Event_queue.push st.events ~time:boundary wake)
    (Fault_set.boundaries faults);
  dispatch_fixpoint st ~time:0.;
  while not (Event_queue.is_empty st.events) do
    let event = Event_queue.pop st.events in
    let time = Event_queue.time st.events in
    Noc_obs.Counters.incr c_events;
    if has_faults then kill_faulted_work st ~time;
    if event >= n then begin
      let e = event - n in
      set_route st.link_busy n_pes false transactions.(e).route;
      deliver st e
    end
    else if event >= 0 && not (has_faults && st.killed.(event)) then
      task_finished st event ~time;
    dispatch_fixpoint st ~time
  done;
  if not has_faults then assert (st.finished_tasks = n);
  let finite v = if Float.is_nan v then infinity else v in
  let realised_placements =
    Array.init n (fun i ->
        {
          Schedule.task = i;
          pe = assignment.(i);
          start = finite st.task_start.(i);
          finish = finite st.task_finish.(i);
        })
  in
  let realised_transactions =
    Array.init n_edges (fun e ->
        let edge = edges.(e) in
        {
          Schedule.edge = e;
          src_pe = assignment.(edge.src);
          dst_pe = assignment.(edge.dst);
          route = transactions.(e).route;
          start = finite st.tr_start.(e);
          finish = finite st.tr_finish.(e);
        })
  in
  (* A lost task is a miss; a finished one misses by the schedulers'
     own rule. *)
  let lost_tasks = ref [] and deadline_misses = ref [] in
  for i = n - 1 downto 0 do
    let f = st.task_finish.(i) in
    if Float.is_nan f then lost_tasks := i :: !lost_tasks;
    let task = Ctg.task ctg i in
    if
      Option.is_some task.deadline
      && (Float.is_nan f || Noc_sched.List_sched.lateness task f > 0.)
    then deadline_misses := i :: !deadline_misses
  done;
  {
    realised = Schedule.make ~placements:realised_placements ~transactions:realised_transactions;
    waiting_time = st.waiting_time;
    edge_waiting = st.edge_waiting;
    lost_tasks = !lost_tasks;
    deadline_misses = !deadline_misses;
  }
