module Schedule = Noc_sched.Schedule
module List_sched = Noc_sched.List_sched

type moves = Both | Lts_only | Gtm_only

type stats = { accepted_swaps : int; accepted_migrations : int; evaluations : int }

(* Search score: primarily the number of missed deadlines, refined by
   the total lateness so the greedy search has a gradient to follow even
   when one move cannot yet save a whole deadline. Sums in task-id
   order, whatever order [finish] was computed in. *)
let score_by ctg finish =
  Array.fold_left
    (fun (count, lateness) (task : Noc_ctg.Task.t) ->
      let late = List_sched.lateness task (finish task.id) in
      if late > 0. then (count + 1, lateness +. late) else (count, lateness))
    (0, 0.) (Noc_ctg.Ctg.tasks ctg)

let score ctg schedule =
  score_by ctg (fun i -> (Schedule.placement schedule i).Schedule.finish)

(* The counts are typed [int] so they compare without the polymorphic
   comparison. [Rebuild.evaluate] abandons a candidate as soon as its
   placed tasks show it cannot pass this test. *)
let improves ((m2 : int), l2) ((m1 : int), l1) = m2 < m1 || (m2 = m1 && l2 < l1 -. 1e-6)

(* Candidate bounds keeping one repair pass polynomial on 500-task
   graphs; the evaluation cap is the hard safety net. *)
let max_critical_per_pass = 24
let max_swap_candidates = 12

let take n list =
  let rec go n = function
    | [] -> []
    | _ :: _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n list

let critical_tasks ctg schedule =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let critical = Array.make n false in
  let rec mark i =
    if not critical.(i) then begin
      critical.(i) <- true;
      List.iter mark (Noc_ctg.Ctg.preds ctg i)
    end
  in
  Array.iter
    (fun (task : Noc_ctg.Task.t) ->
      let finish = (Schedule.placement schedule task.id).Schedule.finish in
      if List_sched.lateness task finish > 0. then mark task.id)
    (Noc_ctg.Ctg.tasks ctg);
  critical

(* Estimated energy of running task [i] on PE [k]: computation plus the
   communication of every incident arc whose other endpoint is fixed.
   On a degraded platform, detoured routes are priced by their real
   length; a pair the fault set disconnects costs [infinity], pushing
   that destination to the end of the candidate order.

   The arc structure never changes during a repair, only [assignment]
   does, so GTM derives each task's (neighbour, volume) lists once and
   re-prices them across every destination and every repair iteration
   instead of re-walking [in_edges]/[out_edges] per candidate PE. *)
let incident_arcs_of ctg i =
  ( List.map
      (fun (e : Noc_ctg.Edge.t) -> (e.Noc_ctg.Edge.src, e.Noc_ctg.Edge.volume))
      (Noc_ctg.Ctg.in_edges ctg i),
    List.map
      (fun (e : Noc_ctg.Edge.t) -> (e.Noc_ctg.Edge.dst, e.Noc_ctg.Edge.volume))
      (Noc_ctg.Ctg.out_edges ctg i) )

let c_moves_priced = Noc_obs.Counters.counter "eas.repair.moves_priced"
let c_evaluations = Noc_obs.Counters.counter "eas.repair.evaluations"
let c_aborted = Noc_obs.Counters.counter "eas.repair.aborted"
let c_replaced_tasks = Noc_obs.Counters.counter "eas.repair.replaced_tasks"
let c_accepted_swaps = Noc_obs.Counters.counter "eas.repair.accepted_swaps"
let c_accepted_migrations = Noc_obs.Counters.counter "eas.repair.accepted_migrations"

let move_energy_arcs kernel ~assignment ~ins ~outs i k =
  Noc_obs.Counters.incr c_moves_priced;
  let incident_comm =
    List.fold_left
      (fun acc (src_task, bits) ->
        acc +. Kernel.comm_energy_inf kernel ~src:assignment.(src_task) ~dst:k ~bits)
      0. ins
    +. List.fold_left
         (fun acc (dst_task, bits) ->
           acc +. Kernel.comm_energy_inf kernel ~src:k ~dst:assignment.(dst_task) ~bits)
         0. outs
  in
  Kernel.exec_energy kernel ~task:i ~pe:k +. incident_comm

let move_energy kernel ctg ~assignment i k =
  let ins, outs = incident_arcs_of ctg i in
  move_energy_arcs kernel ~assignment ~ins ~outs i k

(* Critical tasks in decreasing urgency: the later past its own deadline
   (or its tightest descendant deadline), the earlier it is tried. *)
let ordered_critical ctg schedule critical =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  List.init n Fun.id
  |> List.filter (fun i -> critical.(i))
  |> List.sort (fun a b ->
         let finish i = (Schedule.placement schedule i).Schedule.finish in
         let c = Float.compare (finish b) (finish a) in
         if c <> 0 then c else compare a b)

let run ?comm_model ?kernel ?(max_evaluations = 4_000) ?(moves = Both) platform ctg
    schedule =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let kernel = match kernel with Some k -> k | None -> Kernel.build platform ctg in
  let incident_cache = Array.make n None in
  let incident_arcs i =
    match incident_cache.(i) with
    | Some arcs -> arcs
    | None ->
      let arcs = incident_arcs_of ctg i in
      incident_cache.(i) <- Some arcs;
      arcs
  in
  let assignment, rank = Rebuild.of_schedule schedule in
  let current = ref schedule in
  let best_score = ref (score ctg schedule) in
  let swaps = ref 0 and migrations = ref 0 and evaluations = ref 0 in
  (* Every candidate is priced against the checkpoints of the current
     (assignment, rank): recorded on first use and again after each
     accepted move. Neither recording counts as an evaluation. *)
  let incumbent =
    lazy
      (Rebuild.checkpoint ?comm_model ?degraded:(Kernel.degraded kernel) platform ctg
         ~assignment ~rank)
  in
  (* [restart] names the first step the mutated move can change. A
     candidate that strands a transaction on a disconnected pair is
     simply not an improvement. *)
  let try_apply ~restart mutate restore =
    if !evaluations >= max_evaluations then false
    else begin
      let inc = Lazy.force incumbent in
      mutate ();
      incr evaluations;
      Noc_obs.Counters.incr c_evaluations;
      let outcome, replaced =
        Rebuild.evaluate inc ~assignment ~rank ~from:(restart inc) ~best:!best_score
      in
      Noc_obs.Counters.add c_replaced_tasks replaced;
      let candidate_score =
        match outcome with
        | Rebuild.Completed -> Some (score_by ctg (Rebuild.finish inc))
        | Rebuild.Abandoned ->
          Noc_obs.Counters.incr c_aborted;
          None
        | Rebuild.Failed -> None
      in
      match candidate_score with
      | Some candidate_score when improves candidate_score !best_score ->
        let candidate = Rebuild.candidate inc in
        current := candidate;
        best_score := candidate_score;
        (* Re-derive the compact representation from the realised
           schedule so later moves reason about actual execution order. *)
        let assignment', rank' = Rebuild.of_schedule candidate in
        Array.blit assignment' 0 assignment 0 n;
        Array.blit rank' 0 rank 0 n;
        Rebuild.rebase inc ~assignment ~rank;
        true
      | Some _ | None ->
        restore ();
        false
    end
  in
  let swap_ranks a b =
    let tmp = rank.(a) in
    rank.(a) <- rank.(b);
    rank.(b) <- tmp
  in
  (* LTS: move one critical task earlier on its PE. Returns true when a
     swap was accepted. *)
  let local_task_swapping () =
    let critical = critical_tasks ctg !current in
    let try_critical t1 =
      let p1 = Schedule.placement !current t1 in
      let earlier_non_critical =
        List.init n Fun.id
        |> List.filter (fun t2 ->
               t2 <> t1
               && (not critical.(t2))
               && (Schedule.placement !current t2).Schedule.pe = p1.Schedule.pe
               && rank.(t2) < rank.(t1))
        |> List.sort (fun a b -> compare rank.(b) rank.(a))
        |> take max_swap_candidates
      in
      List.exists
        (fun t2 ->
          try_apply
            ~restart:(fun inc -> Rebuild.swap_restart inc ~rank t1 t2)
            (fun () -> swap_ranks t1 t2)
            (fun () -> swap_ranks t1 t2))
        earlier_non_critical
    in
    List.exists try_critical
      (take max_critical_per_pass (ordered_critical ctg !current critical))
  in
  (* GTM: migrate one critical task, cheapest destination first. *)
  let global_task_migration () =
    let critical = critical_tasks ctg !current in
    let try_critical t1 =
      let home = assignment.(t1) in
      let ins, outs = incident_arcs t1 in
      let destinations =
        List.init n_pes Fun.id
        |> List.filter (fun k -> k <> home && Kernel.pe_alive kernel k)
        |> List.map (fun k ->
               (move_energy_arcs kernel ~assignment ~ins ~outs t1 k, k))
        |> List.sort (fun (e1, k1) (e2, k2) ->
               let c = Float.compare e1 e2 in
               if c <> 0 then c else Int.compare k1 k2)
        |> List.map snd
      in
      List.exists
        (fun k ->
          try_apply
            ~restart:(fun inc -> Rebuild.migration_restart inc t1)
            (fun () -> assignment.(t1) <- k)
            (fun () -> assignment.(t1) <- home))
        destinations
    in
    List.exists try_critical
      (take max_critical_per_pass (ordered_critical ctg !current critical))
  in
  let lts_enabled = match moves with Both | Lts_only -> true | Gtm_only -> false in
  let gtm_enabled = match moves with Both | Gtm_only -> true | Lts_only -> false in
  let rec fix () =
    if fst !best_score > 0 && !evaluations < max_evaluations then
      if lts_enabled && local_task_swapping () then begin
        incr swaps;
        fix ()
      end
      else if gtm_enabled && global_task_migration () then begin
        incr migrations;
        fix ()
      end
      else ()
  in
  fix ();
  Noc_obs.Counters.add c_accepted_swaps !swaps;
  Noc_obs.Counters.add c_accepted_migrations !migrations;
  ( !current,
    { accepted_swaps = !swaps; accepted_migrations = !migrations; evaluations = !evaluations } )
