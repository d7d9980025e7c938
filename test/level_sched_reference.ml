module Schedule = Noc_sched.Schedule
module Comm_sched = Noc_sched.Comm_sched
module Resource_state = Noc_sched.Resource_state
module Rebuild_reference = Noc_oracle.Rebuild_reference

type partial = {
  state : Resource_state.t;
  placements : Schedule.placement option array;
  transactions : Schedule.transaction option array;
}

let incoming_pendings ctg partial i =
  List.map
    (fun (e : Noc_ctg.Edge.t) ->
      match partial.placements.(e.src) with
      | None -> invalid_arg "Level_sched: predecessor not yet scheduled"
      | Some (p : Schedule.placement) ->
        {
          Rebuild_reference.edge = e.id;
          src_pe = p.pe;
          sender_finish = p.finish;
          bits = e.volume;
        })
    (Noc_ctg.Ctg.in_edges ctg i)

(* Tentatively place task [i] on PE [k]: schedule its receiving
   transactions and find the earliest execution window. Reservations stay
   in force (the caller brackets the call with mark/rollback, or keeps
   them when committing). [pendings] must be [incoming_pendings] of [i];
   it is invariant in [k] (every predecessor of a ready task is already
   placed), so the F(i,k) loop builds it once per task instead of once
   per candidate PE. *)
let place ?comm_model ?degraded ~pendings ctg partial i k =
  let transactions, drt =
    Rebuild_reference.schedule_incoming ?model:comm_model ?degraded partial.state
      pendings ~dst_pe:k
  in
  let task = Noc_ctg.Ctg.task ctg i in
  let exec_time = task.Noc_ctg.Task.exec_times.(k) in
  let ready =
    match task.Noc_ctg.Task.release with
    | None -> drt
    | Some release -> Float.max drt release
  in
  let start = Resource_state.earliest_pe_gap partial.state ~pe:k ~after:ready ~duration:exec_time in
  let placement = { Schedule.task = i; pe = k; start; finish = start +. exec_time } in
  (placement, transactions)

let c_fik = Noc_obs.Counters.counter "eas.finish_time.evaluations"
let c_energy = Noc_obs.Counters.counter "eas.assignment_energy.evaluations"

let finish_time ?comm_model ?degraded ~pendings ctg partial i k =
  Noc_obs.Counters.incr c_fik;
  let mark = Resource_state.mark partial.state in
  match place ?comm_model ?degraded ~pendings ctg partial i k with
  | placement, _ ->
    Resource_state.rollback partial.state mark;
    placement.Schedule.finish
  | exception Invalid_argument _ ->
    (* The fault set disconnects a predecessor from PE [k]: [k] can
       never receive the task's inputs. *)
    Resource_state.rollback partial.state mark;
    infinity

(* Energy of running [i] on [k]: computation plus communication of the
   already-placed incoming arcs (paper footnote 2). *)
let assignment_energy ?degraded platform ctg partial i k =
  let task = Noc_ctg.Ctg.task ctg i in
  let comm_energy ~src ~dst ~bits =
    match degraded with
    | Some view when not (Noc_noc.Degraded.is_trivial view) ->
      Noc_noc.Degraded.comm_energy view ~src ~dst ~bits
    | Some _ | None -> Noc_noc.Platform.comm_energy platform ~src ~dst ~bits
  in
  let comm =
    List.fold_left
      (fun acc (e : Noc_ctg.Edge.t) ->
        match partial.placements.(e.src) with
        | None -> acc
        | Some p -> acc +. comm_energy ~src:p.Schedule.pe ~dst:k ~bits:e.volume)
      0.
      (Noc_ctg.Ctg.in_edges ctg i)
  in
  task.Noc_ctg.Task.energies.(k) +. comm

let commit ?comm_model ?degraded ctg partial i k =
  let pendings = incoming_pendings ctg partial i in
  let placement, transactions = place ?comm_model ?degraded ~pendings ctg partial i k in
  Resource_state.reserve_pe partial.state ~pe:k
    (Noc_util.Interval.make ~start:placement.Schedule.start
       ~stop:placement.Schedule.finish);
  partial.placements.(i) <- Some placement;
  List.iter
    (fun (tr : Schedule.transaction) -> partial.transactions.(tr.edge) <- Some tr)
    transactions

let run ?comm_model ?degraded platform ctg (budget : Noc_eas.Budget.t) =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let pe_alive k =
    match degraded with
    | None -> true
    | Some view -> Noc_noc.Degraded.pe_alive view k
  in
  if not (List.exists pe_alive (List.init n_pes Fun.id)) then
    invalid_arg "Level_sched.run: every PE is failed";
  let partial =
    {
      state = Resource_state.create platform;
      placements = Array.make n None;
      transactions = Array.make (Noc_ctg.Ctg.n_edges ctg) None;
    }
  in
  let unscheduled_preds = Array.init n (fun i -> List.length (Noc_ctg.Ctg.preds ctg i)) in
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if unscheduled_preds.(i) = 0 then ready := i :: !ready
  done;
  (* Once a task is ready its predecessors are all placed and never move
     again, so both its pending list and its assignment energies are
     fixed: compute them at most once per task, not once per candidate
     PE per level iteration. The energy cache is filled lazily per PE
     because [assignment_energy] on a degraded platform may raise for
     pairs the fault set disconnects — those PEs are simply never
     queried (their [F(i,k)] is infinite). *)
  let pendings_cache = Array.make n None in
  let pendings_of i =
    match pendings_cache.(i) with
    | Some pendings -> pendings
    | None ->
      let pendings = incoming_pendings ctg partial i in
      pendings_cache.(i) <- Some pendings;
      pendings
  in
  let energy_cache = Array.make n [||] in
  let cached_energy i k =
    if energy_cache.(i) == [||] then energy_cache.(i) <- Array.make n_pes nan;
    let row = energy_cache.(i) in
    if Float.is_nan row.(k) then begin
      Noc_obs.Counters.incr c_energy;
      row.(k) <- assignment_energy ?degraded platform ctg partial i k
    end;
    row.(k)
  in
  let remaining = ref n in
  while !remaining > 0 do
    let rtl = !ready in
    assert (rtl <> []);
    (* F(i,k) for every ready task and PE. *)
    let finishes =
      List.map
        (fun i ->
          let pendings = pendings_of i in
          ( i,
            Array.init n_pes (fun k ->
                if pe_alive k then
                  finish_time ?comm_model ?degraded ~pendings ctg partial i k
                else infinity) ))
        rtl
    in
    let bd i = budget.budgeted_deadlines.(i) in
    let violators =
      List.filter_map
        (fun (i, fs) ->
          let min_f = Noc_util.Stats.min_value fs in
          if min_f > bd i then Some (i, fs, min_f -. bd i) else None)
        finishes
    in
    let chosen_task, chosen_pe, chosen_rule =
      match violators with
      | _ :: _ ->
        (* Rule 3: the worst violator goes to its fastest PE. *)
        let i, fs, _ =
          List.fold_left
            (fun (bi, bfs, bover) (i, fs, over) ->
              if over > bover then (i, fs, over) else (bi, bfs, bover))
            (List.hd violators) (List.tl violators)
        in
        let k = Noc_util.Stats.argmin fs in
        if fs.(k) = infinity then
          invalid_arg "Level_sched.run: task unschedulable on the degraded platform";
        (i, k, "deadline")
      | [] ->
        (* Rule 4: largest energy regret among deadline-respecting PEs. *)
        let candidates =
          List.map
            (fun (i, fs) ->
              let allowed =
                List.filter
                  (fun k -> pe_alive k && fs.(k) <= bd i)
                  (List.init n_pes Fun.id)
              in
              assert (allowed <> []);
              let energies = List.map (fun k -> (cached_energy i k, k)) allowed in
              let sorted = List.sort compare energies in
              let best_energy, best_pe = List.hd sorted in
              let delta =
                match sorted with
                | _ :: (second_energy, _) :: _ -> second_energy -. best_energy
                | [ _ ] -> infinity
                | [] -> assert false
              in
              (i, best_pe, delta))
            finishes
        in
        let i, k, _ =
          List.fold_left
            (fun (bi, bk, bdelta) (i, k, delta) ->
              if delta > bdelta then (i, k, delta) else (bi, bk, bdelta))
            (List.hd candidates) (List.tl candidates)
        in
        (i, k, "regret")
    in
    if Noc_obs.Decisions.is_enabled () then
      Noc_obs.Decisions.record ~task:chosen_task ~rule:chosen_rule ~chosen:chosen_pe
        ~budgeted_deadline:(bd chosen_task)
        ~finishes:(List.assoc chosen_task finishes);
    commit ?comm_model ?degraded ctg partial chosen_task chosen_pe;
    decr remaining;
    ready := List.filter (fun i -> i <> chosen_task) !ready;
    List.iter
      (fun j ->
        unscheduled_preds.(j) <- unscheduled_preds.(j) - 1;
        if unscheduled_preds.(j) = 0 then ready := !ready @ [ j ])
      (Noc_ctg.Ctg.succs ctg chosen_task)
  done;
  let placements = Array.map Option.get partial.placements in
  let transactions = Array.map Option.get partial.transactions in
  Schedule.make ~placements ~transactions
