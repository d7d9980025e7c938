module Schedule = Noc_sched.Schedule
module List_sched = Noc_sched.List_sched
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

(* [up h c x r] and [down h c x r] sift task [x] of rank [r] up or
   down from slot [c]; top-level, so a push or pop allocates no
   closure. *)
let rec up h c x r =
  let parent = (c - 1) / 2 in
  if c > 0 && precedes_slot h parent x r then begin
    set h c h.ids.(parent) h.ranks.(parent);
    up h parent x r
  end
  else set h c x r

let rec down h c x r =
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
      down h m x r
    end
  end

let push h rank x =
  h.size <- h.size + 1;
  up h (h.size - 1) x rank.(x)

let pop h =
  let top = h.ids.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then down h 0 h.ids.(h.size) h.ranks.(h.size);
  top

(* The partial schedule, the PE count and the ready heap. A step reads
   only the placements of its predecessors; a {!Schedule.t} is only
   materialised by {!run} and {!candidate}. *)
type env = { ls : List_sched.t; n_pes : int; ready : heap }

let make_env kernel =
  let n = Kernel.n_tasks kernel in
  {
    ls =
      List_sched.make ~comm_model:(Kernel.comm_model kernel)
        ?degraded:(Kernel.degraded kernel) (Kernel.platform kernel) (Kernel.ctg kernel);
    n_pes = Kernel.n_pes kernel;
    ready = { ids = Array.make n 0; ranks = Array.make n 0; size = 0 };
  }

(* One step: task [i] on its assigned PE. *)
let place env ~assignment i =
  let k = assignment.(i) in
  if k < 0 || k >= env.n_pes then invalid_arg "Rebuild.run: PE out of range";
  List_sched.place env.ls i k

(* One step of the list scheduler: places task [i], popped from
   [env.ready], then pushes the successors it made ready. [waiting.(j)]
   counts j's unplaced predecessors. *)
let step env ~assignment ~rank ~waiting i =
  place env ~assignment i;
  for j = env.ls.succ_start.(i) to env.ls.succ_start.(i + 1) - 1 do
    let c = env.ls.succ.(j) in
    waiting.(c) <- waiting.(c) - 1;
    if waiting.(c) = 0 then push env.ready rank c
  done

(* Fills [waiting] with in-degrees and [env.ready] with the sources. *)
let start_walk env ~rank ~waiting =
  env.ready.size <- 0;
  for i = 0 to Array.length waiting - 1 do
    waiting.(i) <- env.ls.in_start.(i + 1) - env.ls.in_start.(i);
    if waiting.(i) = 0 then push env.ready rank i
  done

let check_lengths n ~assignment ~rank = Array.length assignment = n && Array.length rank = n

let run kernel ~assignment ~rank =
  Noc_obs.Counters.incr c_runs;
  let n = Kernel.n_tasks kernel in
  if not (check_lengths n ~assignment ~rank) then
    invalid_arg "Rebuild.run: array length mismatch";
  let env = make_env kernel in
  let waiting = Array.make n 0 in
  start_walk env ~rank ~waiting;
  for _ = 1 to n do
    step env ~assignment ~rank ~waiting (pop env.ready)
  done;
  List_sched.schedule env.ls

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
  deadlines : float array;  (** Each task's deadline, [infinity] for none. *)
  base_pe : int array;
  base_start : float array;
  base_finish : float array;
  base_tx_start : float array;
  base_tx_finish : float array;
  order : int array;  (** Task placed at each step. *)
  pos : int array;  (** Step of each task. *)
  ready_at : int array;  (** First step at which each task is ready. *)
  marks : Resource_state.mark array;  (** Journal before each step. *)
  mutable saved : Resource_state.saved;
      (** The incumbent's journal: a candidate overwrites the live one
          above the mark of its first step. *)
  misses : int array;  (** Misses among the tasks of the steps before. *)
  lateness : float array;  (** Their lateness, summed in step order. *)
  origin : Resource_state.mark;
  waiting : int array;
  candidate_order : int array;
  mutable reached : int;
      (** Steps the incumbent completed: [n], or the step that raised;
          [-1] when the arrays do not fit the graph. *)
  mutable at : int;  (** The shared state holds the first [at] steps. *)
  mutable stop : int;
      (** The last candidate's steps [[at, stop)] are still in place;
          none when [stop <= at]. *)
}

type outcome = Completed | Abandoned | Failed

(* The lateness task [i] adds when it finishes at [finish]: the rule of
   [List_sched.lateness] (a miss past 1e-9), read from the deadline
   array. Inlined, so the walk boxes no float. *)
let[@inline] late inc i finish =
  let late = finish -. inc.deadlines.(i) in
  if late > 1e-9 then late else 0.

let rebase inc ~assignment ~rank =
  Noc_obs.Counters.incr c_checkpoints;
  let env = inc.env in
  let n = Noc_ctg.Ctg.n_tasks env.ls.ctg in
  Resource_state.rollback env.ls.state inc.origin;
  inc.stop <- 0;
  Array.fill env.ls.pe 0 n (-1);
  Array.fill env.ls.start 0 n nan;
  Array.fill env.ls.finish 0 n nan;
  Array.fill env.ls.tx_start 0 (Array.length env.ls.tx_start) nan;
  Array.fill env.ls.tx_finish 0 (Array.length env.ls.tx_finish) nan;
  Array.fill inc.pos 0 n (-1);
  if not (check_lengths n ~assignment ~rank) then begin
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
        for s = 0 to n - 1 do
          let i = pop env.ready in
          inc.marks.(s) <- Resource_state.mark env.ls.state;
          inc.order.(s) <- i;
          inc.pos.(i) <- s;
          last := s;
          step env ~assignment ~rank ~waiting i;
          let l = late inc i env.ls.finish.(i) in
          if l > 0. then begin
            incr misses;
            lateness := !lateness +. l
          end;
          inc.misses.(s + 1) <- !misses;
          inc.lateness.(s + 1) <- !lateness
        done;
        n
      with Invalid_argument _ ->
        (* Undo what the step that raised reserved before it did. *)
        Resource_state.rollback env.ls.state inc.marks.(!last);
        !last
    in
    if reached = n then inc.marks.(n) <- Resource_state.mark env.ls.state
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
      for j = env.ls.in_start.(i) to env.ls.in_start.(i + 1) - 1 do
        r := max !r (inc.pos.(env.ls.pred.(j)) + 1)
      done;
      inc.ready_at.(i) <- !r
    done;
    inc.reached <- reached;
    inc.at <- reached
  end;
  inc.saved <- Resource_state.save env.ls.state;
  Array.blit env.ls.pe 0 inc.base_pe 0 n;
  Array.blit env.ls.start 0 inc.base_start 0 n;
  Array.blit env.ls.finish 0 inc.base_finish 0 n;
  Array.blit env.ls.tx_start 0 inc.base_tx_start 0 (Array.length env.ls.tx_start);
  Array.blit env.ls.tx_finish 0 inc.base_tx_finish 0 (Array.length env.ls.tx_finish)

let checkpoint kernel ~assignment ~rank =
  let n = Kernel.n_tasks kernel in
  let env = make_env kernel in
  let inc =
    {
      env;
      deadlines =
        Array.map
          (fun (task : Noc_ctg.Task.t) -> Option.value task.deadline ~default:infinity)
          (Noc_ctg.Ctg.tasks (Kernel.ctg kernel));
      base_pe = Array.copy env.ls.pe;
      base_start = Array.copy env.ls.start;
      base_finish = Array.copy env.ls.finish;
      base_tx_start = Array.copy env.ls.tx_start;
      base_tx_finish = Array.copy env.ls.tx_finish;
      order = Array.make n 0;
      pos = Array.make n (-1);
      ready_at = Array.make n 0;
      marks = Array.make (n + 1) (Resource_state.mark env.ls.state);
      saved = Resource_state.save env.ls.state;
      misses = Array.make (n + 1) 0;
      lateness = Array.make (n + 1) 0.;
      origin = Resource_state.mark env.ls.state;
      waiting = Array.make n 0;
      candidate_order = Array.make n 0;
      reached = 0;
      at = 0;
      stop = 0;
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
  if inc.stop > inc.at then begin
    let env = inc.env in
    Resource_state.rollback env.ls.state inc.marks.(inc.at);
    for s = inc.at to inc.stop - 1 do
      let i = inc.candidate_order.(s) in
      env.ls.pe.(i) <- inc.base_pe.(i);
      env.ls.start.(i) <- inc.base_start.(i);
      env.ls.finish.(i) <- inc.base_finish.(i);
      for j = env.ls.in_start.(i) to env.ls.in_start.(i + 1) - 1 do
        let e = env.ls.in_edge.(j) in
        env.ls.tx_start.(e) <- inc.base_tx_start.(e);
        env.ls.tx_finish.(e) <- inc.base_tx_finish.(e)
      done
    done;
    inc.stop <- inc.at
  end

let seek inc step =
  let state = inc.env.ls.state in
  if inc.at > step then Resource_state.rollback state inc.marks.(step)
  else if inc.at < step then Resource_state.redo state inc.saved inc.marks.(step);
  inc.at <- step

(* The abandonment bound: a candidate whose placed tasks tally [(m, l)]
   can still improve on the score [(m1, l1)] to beat while [m < m1 ||
   (m = m1 && l < bound)]. Placed tasks never move again, so [m] and [l]
   only grow, and once this fails the final score cannot improve
   either. [l] is summed in placement order and the final score in
   task-id order; the relative margin covers that rounding gap, which
   is of order n * epsilon * l1, far below 1e-9 * l1. *)
let lateness_bound l1 = l1 -. 1e-6 +. (1e-9 *. (1. +. Float.abs l1))

let evaluate inc ~assignment ~rank ~from ~best:(best_misses, best_lateness) =
  discard inc;
  if from > inc.reached then (Failed, 0)
  else begin
    seek inc from;
    let env = inc.env in
    let n = Noc_ctg.Ctg.n_tasks env.ls.ctg in
    (* The candidate's ready set at [from]: tasks of later steps whose
       predecessors all come before [from]. *)
    env.ready.size <- 0;
    for s = from to n - 1 do
      let i = inc.order.(s) in
      let w = ref 0 in
      for j = env.ls.in_start.(i) to env.ls.in_start.(i + 1) - 1 do
        if inc.pos.(env.ls.pred.(j)) >= from then incr w
      done;
      inc.waiting.(i) <- !w;
      if !w = 0 then push env.ready rank i
    done;
    (* The list scheduler from [from] on, stopping at the first
       placement after which the candidate can no longer improve on
       [best]. A step that raises counts as taken: [discard] undoes what
       it wrote. *)
    let bound = lateness_bound best_lateness in
    let misses = ref inc.misses.(from) and lateness = ref inc.lateness.(from) in
    let s = ref from and abandoned = ref false in
    let result =
      try
        while !s < n && not !abandoned do
          let i = pop env.ready in
          inc.candidate_order.(!s) <- i;
          incr s;
          inc.stop <- !s;
          step env ~assignment ~rank ~waiting:inc.waiting i;
          let l = late inc i env.ls.finish.(i) in
          if l > 0. then begin
            incr misses;
            lateness := !lateness +. l
          end;
          abandoned :=
            not (!misses < best_misses || (!misses = best_misses && !lateness < bound))
        done;
        if !abandoned then Abandoned else Completed
      with Invalid_argument _ -> Failed
    in
    (result, !s - from)
  end

let finish inc i = inc.env.ls.finish.(i)
let candidate inc = List_sched.schedule inc.env.ls
