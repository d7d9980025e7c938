module Schedule = Noc_sched.Schedule
module Comm_sched = Noc_sched.Comm_sched
module Resource_state = Noc_sched.Resource_state

let c_runs = Noc_obs.Counters.counter "eas.rebuild.runs"
let c_checkpoints = Noc_obs.Counters.counter "eas.rebuild.checkpoints"

(* Ready tasks keyed by (rank, task); ties on rank fall back to the
   task id. *)
let compare_key (r1, t1) (r2, t2) =
  let c = Int.compare r1 r2 in
  if c <> 0 then c else Int.compare t1 t2

module Ready = Set.Make (struct
  type t = int * int

  let compare = compare_key
end)

(* Everything a list-scheduling step reads and writes. [placements] and
   [transactions] hold a placeholder for every task or edge not placed
   yet; a step reads only the placements of its predecessors. *)
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

(* One step: task [i] receives its transactions through the
   communication scheduler, then runs in the earliest gap of its PE. *)
let place env ~assignment i =
  let k = assignment.(i) in
  if k < 0 || k >= Noc_noc.Platform.n_pes (Resource_state.platform env.state) then
    invalid_arg "Rebuild.run: PE out of range";
  let pendings =
    List.map
      (fun (e : Noc_ctg.Edge.t) ->
        let p = env.placements.(e.src) in
        {
          Comm_sched.edge = e.id;
          src_pe = p.Schedule.pe;
          sender_finish = p.finish;
          bits = e.volume;
        })
      (Noc_ctg.Ctg.in_edges env.ctg i)
  in
  let placed, drt =
    Comm_sched.schedule_incoming ?model:env.comm_model ?degraded:env.degraded env.state
      pendings ~dst_pe:k
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

(* The list scheduler, from step [step] on: pops the ready task of
   smallest rank and places it, until every task is placed.
   [waiting.(j)] counts j's unplaced predecessors. [before s i] runs
   before step [s] places task [i], [continue_ s i] after it; the walk
   stops when that returns false. Returns the first step not taken. *)
let walk env ~assignment ~rank ~ready ~waiting ~step ~before ~continue_ =
  let n = Noc_ctg.Ctg.n_tasks env.ctg in
  let rec go ready s =
    if s = n then n
    else begin
      let ((_, i) as elt) = Ready.min_elt ready in
      let ready = Ready.remove elt ready in
      before s i;
      place env ~assignment i;
      let ready =
        List.fold_left
          (fun ready j ->
            waiting.(j) <- waiting.(j) - 1;
            if waiting.(j) = 0 then Ready.add (rank.(j), j) ready else ready)
          ready (Noc_ctg.Ctg.succs env.ctg i)
      in
      if continue_ s i then go ready (s + 1) else s + 1
    end
  in
  go ready step

let sources ~rank ~waiting =
  let ready = ref Ready.empty in
  Array.iteri
    (fun i w -> if w = 0 then ready := Ready.add (rank.(i), i) !ready)
    waiting;
  !ready

let in_degrees ctg =
  Array.init (Noc_ctg.Ctg.n_tasks ctg) (fun i -> List.length (Noc_ctg.Ctg.preds ctg i))

let check_lengths ctg ~assignment ~rank =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  Array.length assignment = n && Array.length rank = n

let run ?comm_model ?degraded platform ctg ~assignment ~rank =
  Noc_obs.Counters.incr c_runs;
  if not (check_lengths ctg ~assignment ~rank) then
    invalid_arg "Rebuild.run: array length mismatch";
  let env = make_env ?comm_model ?degraded platform ctg in
  let waiting = in_degrees ctg in
  ignore
    (walk env ~assignment ~rank ~ready:(sources ~rank ~waiting) ~waiting ~step:0
       ~before:(fun _ _ -> ())
       ~continue_:(fun _ _ -> true));
  Schedule.make ~placements:env.placements ~transactions:env.transactions

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
  base_placements : Schedule.placement array;
  base_transactions : Schedule.transaction array;
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
  let l = inc.late i inc.env.placements.(i).Schedule.finish in
  if l > 0. then begin
    incr misses;
    lateness := !lateness +. l
  end

let rebase inc ~assignment ~rank =
  Noc_obs.Counters.incr c_checkpoints;
  let ctg = inc.env.ctg in
  let n = Noc_ctg.Ctg.n_tasks ctg in
  Resource_state.rollback inc.env.state inc.origin;
  inc.pending <- None;
  Array.fill inc.env.placements 0 n unplaced;
  Array.fill inc.env.transactions 0 (Array.length inc.env.transactions) untransmitted;
  Array.fill inc.pos 0 n (-1);
  if not (check_lengths ctg ~assignment ~rank) then begin
    inc.reached <- -1;
    inc.at <- 0
  end
  else begin
    let misses = ref 0 and lateness = ref 0. and last = ref 0 in
    inc.misses.(0) <- 0;
    inc.lateness.(0) <- 0.;
    let waiting = in_degrees ctg in
    let reached =
      try
        walk inc.env ~assignment ~rank ~ready:(sources ~rank ~waiting) ~waiting ~step:0
          ~before:(fun s i ->
            inc.marks.(s) <- Resource_state.mark inc.env.state;
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
        Resource_state.rollback inc.env.state inc.marks.(!last);
        !last
    in
    if reached = n then inc.marks.(n) <- Resource_state.mark inc.env.state
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
      inc.ready_at.(i) <-
        List.fold_left (fun acc p -> max acc (inc.pos.(p) + 1)) 0 (Noc_ctg.Ctg.preds ctg i)
    done;
    inc.reached <- reached;
    inc.at <- reached
  end;
  Array.blit inc.env.placements 0 inc.base_placements 0 n;
  Array.blit inc.env.transactions 0 inc.base_transactions 0
    (Array.length inc.base_transactions)

let checkpoint ?comm_model ?degraded platform ctg ~late ~assignment ~rank =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let env = make_env ?comm_model ?degraded platform ctg in
  let inc =
    {
      env;
      late;
      base_placements = Array.copy env.placements;
      base_transactions = Array.copy env.transactions;
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
  let key = (rank.(x), x) in
  let p = inc.pos.(x) in
  let rec scan j =
    if j >= p then p
    else
      let o = inc.order.(j) in
      if compare_key key (rank.(o), o) < 0 then j else scan (j + 1)
  in
  scan inc.ready_at.(x)

(* After the swap the task that ranks first is the one whose rank fell.
   The other now ranks after every task it ranked after before, so it
   can change no pick before its own step. *)
let swap_restart inc ~rank a b =
  let fell, rose = if compare_key (rank.(a), a) (rank.(b), b) < 0 then (a, b) else (b, a) in
  min (preempts inc ~rank fell) inc.pos.(rose)

(* Undoes the last candidate: its reservations and every placement and
   transaction it wrote. *)
let discard inc =
  match inc.pending with
  | None -> ()
  | Some (from, stop) ->
    Resource_state.rollback inc.env.state inc.marks.(from);
    for s = from to stop - 1 do
      let i = inc.candidate_order.(s) in
      inc.env.placements.(i) <- inc.base_placements.(i);
      List.iter
        (fun (e : Noc_ctg.Edge.t) ->
          inc.env.transactions.(e.id) <- inc.base_transactions.(e.id))
        (Noc_ctg.Ctg.in_edges inc.env.ctg i)
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
    let ctg = inc.env.ctg in
    let n = Noc_ctg.Ctg.n_tasks ctg in
    (* The candidate's ready set at [from]: tasks of later steps whose
       predecessors all come before [from]. *)
    let ready = ref Ready.empty in
    for s = from to n - 1 do
      let i = inc.order.(s) in
      let w =
        List.fold_left
          (fun acc p -> if inc.pos.(p) >= from then acc + 1 else acc)
          0 (Noc_ctg.Ctg.preds ctg i)
      in
      inc.waiting.(i) <- w;
      if w = 0 then ready := Ready.add (rank.(i), i) !ready
    done;
    let misses = ref inc.misses.(from) and lateness = ref inc.lateness.(from) in
    let stop = ref from and abandoned = ref false in
    let result =
      try
        ignore
          (walk inc.env ~assignment ~rank ~ready:!ready ~waiting:inc.waiting ~step:from
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

let finish inc i = inc.env.placements.(i).Schedule.finish

let candidate inc =
  Schedule.make ~placements:(Array.copy inc.env.placements)
    ~transactions:(Array.copy inc.env.transactions)
