module Schedule = Noc_sched.Schedule
module Comm_sched = Noc_sched.Comm_sched
module Resource_state = Noc_sched.Resource_state

let c_runs = Noc_obs.Counters.counter "eas.rebuild.runs"
let c_checkpoints = Noc_obs.Counters.counter "eas.rebuild.checkpoints"

(* Whether task [a] is placed before task [b] when both are ready: the
   smaller rank first, ties broken by task id. *)
let precedes rank a b =
  let ra = rank.(a) and rb = rank.(b) in
  ra < rb || (ra = rb && a < b)

(* Ready tasks: a binary min-heap under [precedes]. The key is total, so
   the pop order does not depend on the push order. Each slot keeps its
   task's rank beside the id, so sifting never looks [rank] up. *)
type heap = { ids : int array; ranks : int array; mutable size : int }

let[@inline] set h c x r =
  h.ids.(c) <- x;
  h.ranks.(c) <- r

(* Whether task [x] of rank [r] precedes the task in slot [c]. *)
let[@inline] precedes_slot h c x r =
  let rc = h.ranks.(c) in
  r < rc || (r = rc && x < h.ids.(c))

let push h rank x =
  let r = rank.(x) in
  let rec up c =
    let parent = (c - 1) / 2 in
    if c > 0 && precedes_slot h parent x r then begin
      set h c h.ids.(parent) h.ranks.(parent);
      up parent
    end
    else set h c x r
  in
  h.size <- h.size + 1;
  up (h.size - 1)

let pop h =
  let top = h.ids.(0) in
  h.size <- h.size - 1;
  let x = h.ids.(h.size) and r = h.ranks.(h.size) in
  let rec down c =
    let l = (2 * c) + 1 in
    if l >= h.size then set h c x r
    else begin
      let m =
        if l + 1 < h.size && precedes_slot h l h.ids.(l + 1) h.ranks.(l + 1) then l + 1
        else l
      in
      if precedes_slot h m x r then set h c x r
      else begin
        set h c h.ids.(m) h.ranks.(m);
        down m
      end
    end
  in
  if h.size > 0 then down 0;
  top

(* Everything a list-scheduling step reads and writes, on flat arrays.
   The graph is stored once in CSR form: task [i]'s in-edges are
   [in_edge.(in_start.(i)) .. in_edge.(in_start.(i + 1) - 1)] in
   increasing id order, with their producers at the same positions of
   [pred]; its successors are laid out the same way. A placement is the
   triple [pe.(i)], [start.(i)], [finish.(i)] and a transaction the
   window [tx_start.(e)], [tx_finish.(e)]; its PEs are those of the
   edge's endpoints and its route is derived from them, so a
   {!Schedule.t} is only materialised by {!run} and {!candidate}. A
   step reads only the placements of its predecessors. *)
type env = {
  comm_model : Comm_sched.model option;
  degraded : Noc_noc.Degraded.t option;
  ctg : Noc_ctg.Ctg.t;
  state : Resource_state.t;
  n_pes : int;
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
  ready : heap;
  incoming : int array;  (** Scratch: one task's in-edges in Fig. 3 order. *)
}

(* Row offsets and flattened entries of a per-task list adjacency. *)
let csr n row =
  let rows = List.init n row in
  let offsets = Array.make (n + 1) 0 in
  List.iteri (fun i r -> offsets.(i + 1) <- offsets.(i) + List.length r) rows;
  (offsets, Array.concat (List.map Array.of_list rows))

let make_env ?comm_model ?degraded platform ctg =
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
    comm_model;
    degraded;
    ctg;
    state = Resource_state.create platform;
    n_pes = Noc_noc.Platform.n_pes platform;
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
    ready = { ids = Array.make n 0; ranks = Array.make n 0; size = 0 };
    incoming = Array.make !max_in 0;
  }

(* Whether edge [e1] is sent before [e2] in the Fig. 3 order. *)
let sent_before env e1 e2 =
  Comm_sched.compare_sends ~finish_a:env.finish.(env.edge_src.(e1)) ~edge_a:e1
    ~finish_b:env.finish.(env.edge_src.(e2)) ~edge_b:e2
  < 0

(* One step: task [i] receives its transactions through the
   communication scheduler, in the Fig. 3 order, then runs in the
   earliest gap of its PE. *)
let place env ~assignment i =
  let k = assignment.(i) in
  if k < 0 || k >= env.n_pes then invalid_arg "Rebuild.run: PE out of range";
  let lo = env.in_start.(i) in
  let m = env.in_start.(i + 1) - lo in
  (* Insertion sort: in-degrees are small. *)
  let incoming = env.incoming in
  for j = 0 to m - 1 do
    let e = env.in_edge.(lo + j) in
    let p = ref j in
    while !p > 0 && sent_before env e incoming.(!p - 1) do
      incoming.(!p) <- incoming.(!p - 1);
      decr p
    done;
    incoming.(!p) <- e
  done;
  let drt = ref 0. in
  for j = 0 to m - 1 do
    let e = incoming.(j) in
    let src = env.edge_src.(e) in
    let window =
      Comm_sched.transmit ?model:env.comm_model ?degraded:env.degraded env.state
        ~src_pe:env.pe.(src) ~dst_pe:k ~sender_finish:env.finish.(src)
        ~bits:env.volume.(e)
    in
    env.tx_start.(e) <- window.Noc_util.Interval.start;
    env.tx_finish.(e) <- window.Noc_util.Interval.stop;
    drt := Float.max !drt window.Noc_util.Interval.stop
  done;
  let task = Noc_ctg.Ctg.task env.ctg i in
  let exec_time = task.Noc_ctg.Task.exec_times.(k) in
  let available =
    match task.Noc_ctg.Task.release with
    | None -> !drt
    | Some release -> Float.max !drt release
  in
  let start =
    Resource_state.earliest_pe_gap env.state ~pe:k ~after:available ~duration:exec_time
  in
  Resource_state.reserve_pe env.state ~pe:k
    (Noc_util.Interval.make ~start ~stop:(start +. exec_time));
  env.pe.(i) <- k;
  env.start.(i) <- start;
  env.finish.(i) <- start +. exec_time

(* The list scheduler, from step [step] on: pops the ready task of
   smallest rank and places it, until every task is placed. [env.ready]
   holds the tasks ready at [step]; [waiting.(j)] counts j's unplaced
   predecessors. [before s i] runs before step [s] places task [i],
   [continue_ s i] after it; the walk stops when that returns false.
   Returns the first step not taken. *)
let walk env ~assignment ~rank ~waiting ~step ~before ~continue_ =
  let n = Noc_ctg.Ctg.n_tasks env.ctg in
  let rec go s =
    if s = n then n
    else begin
      let i = pop env.ready in
      before s i;
      place env ~assignment i;
      for j = env.succ_start.(i) to env.succ_start.(i + 1) - 1 do
        let c = env.succ.(j) in
        waiting.(c) <- waiting.(c) - 1;
        if waiting.(c) = 0 then push env.ready rank c
      done;
      if continue_ s i then go (s + 1) else s + 1
    end
  in
  go step

(* Fills [waiting] with in-degrees and [env.ready] with the sources. *)
let start_walk env ~rank ~waiting =
  env.ready.size <- 0;
  for i = 0 to Array.length waiting - 1 do
    waiting.(i) <- env.in_start.(i + 1) - env.in_start.(i);
    if waiting.(i) = 0 then push env.ready rank i
  done

let check_lengths ctg ~assignment ~rank =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  Array.length assignment = n && Array.length rank = n

(* The placements and transactions the arrays hold, as a schedule. *)
let schedule_of env =
  let platform = Resource_state.platform env.state in
  let placements =
    Array.init (Array.length env.pe) (fun i ->
        {
          Schedule.task = i;
          pe = env.pe.(i);
          start = env.start.(i);
          finish = env.finish.(i);
        })
  in
  let transactions =
    Array.map
      (fun (e : Noc_ctg.Edge.t) ->
        let src_pe = env.pe.(e.src) and dst_pe = env.pe.(e.dst) in
        {
          Schedule.edge = e.id;
          src_pe;
          dst_pe;
          route = Comm_sched.route ?degraded:env.degraded platform ~src_pe ~dst_pe;
          start = env.tx_start.(e.id);
          finish = env.tx_finish.(e.id);
        })
      (Noc_ctg.Ctg.edges env.ctg)
  in
  Schedule.make ~placements ~transactions

let run ?comm_model ?degraded platform ctg ~assignment ~rank =
  Noc_obs.Counters.incr c_runs;
  if not (check_lengths ctg ~assignment ~rank) then
    invalid_arg "Rebuild.run: array length mismatch";
  let env = make_env ?comm_model ?degraded platform ctg in
  let waiting = Array.make (Noc_ctg.Ctg.n_tasks ctg) 0 in
  start_walk env ~rank ~waiting;
  ignore
    (walk env ~assignment ~rank ~waiting ~step:0
       ~before:(fun _ _ -> ())
       ~continue_:(fun _ _ -> true));
  schedule_of env

let of_schedule schedule =
  let n = Schedule.n_tasks schedule in
  let assignment =
    Array.init n (fun i -> (Schedule.placement schedule i).Schedule.pe)
  in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let pa = Schedule.placement schedule a and pb = Schedule.placement schedule b in
      let c = Float.compare pa.Schedule.start pb.Schedule.start in
      if c <> 0 then c else compare a b)
    order;
  let rank = Array.make n 0 in
  Array.iteri (fun pos task -> rank.(task) <- pos) order;
  (assignment, rank)

(* ------------------------------------------------------------------ *)
(* Checkpointed incumbent. *)

type incumbent = {
  env : env;  (** The candidate's placements; the incumbent's outside it. *)
  late : int -> float -> float;
  base_pe : int array;
  base_start : float array;
  base_finish : float array;
  base_tx_start : float array;
  base_tx_finish : float array;
  order : int array;  (** Task placed at each step. *)
  pos : int array;  (** Step of each task. *)
  ready_at : int array;  (** First step at which each task is ready. *)
  marks : Resource_state.mark array;  (** Journal before each step. *)
  misses : int array;  (** Misses among the tasks of the steps before. *)
  lateness : float array;  (** Their lateness, summed in step order. *)
  origin : Resource_state.mark;
  waiting : int array;
  candidate_order : int array;
  mutable reached : int;
      (** Steps the incumbent completed: [n], or the step that raised;
          [-1] when the arrays do not fit the graph. *)
  mutable at : int;  (** The shared state holds the first [at] steps. *)
  mutable pending : (int * int) option;
      (** Steps [[from, stop)] of the last candidate, still in place. *)
}

type outcome = Completed | Abandoned | Failed

(* Adds task [i]'s placement to a running (misses, lateness) tally. *)
let tally inc misses lateness i =
  let l = inc.late i inc.env.finish.(i) in
  if l > 0. then begin
    incr misses;
    lateness := !lateness +. l
  end

let rebase inc ~assignment ~rank =
  Noc_obs.Counters.incr c_checkpoints;
  let env = inc.env in
  let ctg = env.ctg in
  let n = Noc_ctg.Ctg.n_tasks ctg in
  Resource_state.rollback env.state inc.origin;
  inc.pending <- None;
  Array.fill env.pe 0 n (-1);
  Array.fill env.start 0 n nan;
  Array.fill env.finish 0 n nan;
  Array.fill env.tx_start 0 (Array.length env.tx_start) nan;
  Array.fill env.tx_finish 0 (Array.length env.tx_finish) nan;
  Array.fill inc.pos 0 n (-1);
  if not (check_lengths ctg ~assignment ~rank) then begin
    inc.reached <- -1;
    inc.at <- 0
  end
  else begin
    let misses = ref 0 and lateness = ref 0. and last = ref 0 in
    inc.misses.(0) <- 0;
    inc.lateness.(0) <- 0.;
    let waiting = inc.waiting in
    start_walk env ~rank ~waiting;
    let reached =
      try
        walk env ~assignment ~rank ~waiting ~step:0
          ~before:(fun s i ->
            inc.marks.(s) <- Resource_state.mark env.state;
            inc.order.(s) <- i;
            inc.pos.(i) <- s;
            last := s)
          ~continue_:(fun s i ->
            tally inc misses lateness i;
            inc.misses.(s + 1) <- !misses;
            inc.lateness.(s + 1) <- !lateness;
            true)
      with Invalid_argument _ ->
        (* Undo what the step that raised reserved before it did. *)
        Resource_state.rollback env.state inc.marks.(!last);
        !last
    in
    if reached = n then inc.marks.(n) <- Resource_state.mark env.state
    else begin
      (* Tasks the failed walk never reached go last, in id order: only
         steps up to [reached] are ever restarted from. *)
      let next = ref (reached + 1) in
      for i = 0 to n - 1 do
        if inc.pos.(i) < 0 then begin
          inc.order.(!next) <- i;
          inc.pos.(i) <- !next;
          incr next
        end
      done
    end;
    for i = 0 to n - 1 do
      let r = ref 0 in
      for j = env.in_start.(i) to env.in_start.(i + 1) - 1 do
        r := max !r (inc.pos.(env.pred.(j)) + 1)
      done;
      inc.ready_at.(i) <- !r
    done;
    inc.reached <- reached;
    inc.at <- reached
  end;
  Array.blit env.pe 0 inc.base_pe 0 n;
  Array.blit env.start 0 inc.base_start 0 n;
  Array.blit env.finish 0 inc.base_finish 0 n;
  Array.blit env.tx_start 0 inc.base_tx_start 0 (Array.length env.tx_start);
  Array.blit env.tx_finish 0 inc.base_tx_finish 0 (Array.length env.tx_finish)

let checkpoint ?comm_model ?degraded platform ctg ~late ~assignment ~rank =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let env = make_env ?comm_model ?degraded platform ctg in
  let inc =
    {
      env;
      late;
      base_pe = Array.copy env.pe;
      base_start = Array.copy env.start;
      base_finish = Array.copy env.finish;
      base_tx_start = Array.copy env.tx_start;
      base_tx_finish = Array.copy env.tx_finish;
      order = Array.make n 0;
      pos = Array.make n (-1);
      ready_at = Array.make n 0;
      marks = Array.make (n + 1) (Resource_state.mark env.state);
      misses = Array.make (n + 1) 0;
      lateness = Array.make (n + 1) 0.;
      origin = Resource_state.mark env.state;
      waiting = Array.make n 0;
      candidate_order = Array.make n 0;
      reached = 0;
      at = 0;
      pending = None;
    }
  in
  rebase inc ~assignment ~rank;
  inc

let migration_restart inc task = inc.pos.(task)

(* The first step at which [x], whose rank fell, would be popped where
   the incumbent popped another task: a step of its ready window whose
   incumbent pick it now precedes, else its own step. *)
let preempts inc ~rank x =
  let p = inc.pos.(x) in
  let rec scan j =
    if j >= p then p else if precedes rank x inc.order.(j) then j else scan (j + 1)
  in
  scan inc.ready_at.(x)

(* After the swap the task that ranks first is the one whose rank fell.
   The other now ranks after every task it ranked after before, so it
   can change no pick before its own step. *)
let swap_restart inc ~rank a b =
  let fell, rose = if precedes rank a b then (a, b) else (b, a) in
  min (preempts inc ~rank fell) inc.pos.(rose)

(* Undoes the last candidate: its reservations and every placement and
   transaction it wrote. *)
let discard inc =
  match inc.pending with
  | None -> ()
  | Some (from, stop) ->
    let env = inc.env in
    Resource_state.rollback env.state inc.marks.(from);
    for s = from to stop - 1 do
      let i = inc.candidate_order.(s) in
      env.pe.(i) <- inc.base_pe.(i);
      env.start.(i) <- inc.base_start.(i);
      env.finish.(i) <- inc.base_finish.(i);
      for j = env.in_start.(i) to env.in_start.(i + 1) - 1 do
        let e = env.in_edge.(j) in
        env.tx_start.(e) <- inc.base_tx_start.(e);
        env.tx_finish.(e) <- inc.base_tx_finish.(e)
      done
    done;
    inc.at <- from;
    inc.pending <- None

let seek inc step =
  if inc.at > step then Resource_state.rollback inc.env.state inc.marks.(step)
  else if inc.at < step then Resource_state.redo inc.env.state inc.marks.(step);
  inc.at <- step

let evaluate inc ~assignment ~rank ~from ~viable =
  discard inc;
  if from > inc.reached then (Failed, 0)
  else begin
    seek inc from;
    let env = inc.env in
    let n = Noc_ctg.Ctg.n_tasks env.ctg in
    (* The candidate's ready set at [from]: tasks of later steps whose
       predecessors all come before [from]. *)
    env.ready.size <- 0;
    for s = from to n - 1 do
      let i = inc.order.(s) in
      let w = ref 0 in
      for j = env.in_start.(i) to env.in_start.(i + 1) - 1 do
        if inc.pos.(env.pred.(j)) >= from then incr w
      done;
      inc.waiting.(i) <- !w;
      if !w = 0 then push env.ready rank i
    done;
    let misses = ref inc.misses.(from) and lateness = ref inc.lateness.(from) in
    let stop = ref from and abandoned = ref false in
    let result =
      try
        ignore
          (walk env ~assignment ~rank ~waiting:inc.waiting ~step:from
             ~before:(fun s i ->
               inc.candidate_order.(s) <- i;
               stop := s + 1)
             ~continue_:(fun _ i ->
               tally inc misses lateness i;
               abandoned := not (viable !misses !lateness);
               not !abandoned));
        if !abandoned then Abandoned else Completed
      with Invalid_argument _ -> Failed
    in
    inc.pending <- Some (from, !stop);
    (result, !stop - from)
  end

let finish inc i = inc.env.finish.(i)
let candidate inc = schedule_of inc.env
