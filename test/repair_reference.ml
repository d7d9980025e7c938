(* Test-only oracle for the Step-3 repair search: every candidate move
   is priced by a full from-scratch rebuild of all tasks through the
   frozen list scheduler (Rebuild_reference), the search as it stood
   before candidates were re-placed incrementally from checkpoints.
   Noc_eas.Repair must agree with it bit for bit — same
   accepted moves, same stats, byte-identical schedules — and
   [fault_resched] runs Noc_eas.Fault_resched's pipeline on top of it
   (see test_repair_diff). *)

module Schedule = Noc_sched.Schedule
module Repair = Noc_eas.Repair
module Rebuild = Noc_eas.Rebuild
module Rebuild_reference = Noc_oracle.Rebuild_reference
module Kernel = Noc_eas.Kernel
module Degraded = Noc_noc.Degraded
module Fault_set = Noc_fault.Fault_set

(* The search score, kept verbatim from before it was shared. *)
let score ctg schedule =
  Array.fold_left
    (fun (count, lateness) (task : Noc_ctg.Task.t) ->
      match task.deadline with
      | None -> (count, lateness)
      | Some d ->
        let late = (Schedule.placement schedule task.id).Schedule.finish -. d in
        if late > 1e-9 then (count + 1, lateness +. late) else (count, lateness))
    (0, 0.) (Noc_ctg.Ctg.tasks ctg)

let improves (m2, l2) (m1, l1) = m2 < m1 || (m2 = m1 && l2 < l1 -. 1e-6)

let max_critical_per_pass = 24
let max_swap_candidates = 12

let take n list =
  let rec go n = function
    | [] -> []
    | _ :: _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n list

let ordered_critical ctg schedule critical =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  List.init n Fun.id
  |> List.filter (fun i -> critical.(i))
  |> List.sort (fun a b ->
         let finish i = (Schedule.placement schedule i).Schedule.finish in
         let c = Float.compare (finish b) (finish a) in
         if c <> 0 then c else compare a b)

(* Candidates whose rebuild raised, over every run: a test can check
   that a corpus case really exercises the failure path. *)
let failed_rebuilds = ref 0

let run ?comm_model ?degraded ?kernel ?(max_evaluations = 4_000) ?(moves = Repair.Both)
    platform ctg schedule =
  let n = Noc_ctg.Ctg.n_tasks ctg in
  let n_pes = Noc_noc.Platform.n_pes platform in
  let kernel =
    match kernel with Some k -> k | None -> Kernel.build ?degraded platform ctg
  in
  let assignment, rank = Rebuild.of_schedule schedule in
  let current = ref schedule in
  let best_score = ref (score ctg schedule) in
  let swaps = ref 0 and migrations = ref 0 and evaluations = ref 0 in
  let rebuild () =
    incr evaluations;
    try
      Some (Rebuild_reference.run ?comm_model ?degraded platform ctg ~assignment ~rank)
    with Invalid_argument _ ->
      incr failed_rebuilds;
      None
  in
  let try_apply mutate restore =
    if !evaluations >= max_evaluations then false
    else begin
      mutate ();
      match rebuild () with
      | None ->
        restore ();
        false
      | Some candidate ->
        let candidate_score = score ctg candidate in
        if improves candidate_score !best_score then begin
          current := candidate;
          best_score := candidate_score;
          let assignment', rank' = Rebuild.of_schedule candidate in
          Array.blit assignment' 0 assignment 0 n;
          Array.blit rank' 0 rank 0 n;
          true
        end
        else begin
          restore ();
          false
        end
    end
  in
  let swap_ranks a b =
    let tmp = rank.(a) in
    rank.(a) <- rank.(b);
    rank.(b) <- tmp
  in
  let local_task_swapping () =
    let critical = Repair.critical_tasks ctg !current in
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
        (fun t2 -> try_apply (fun () -> swap_ranks t1 t2) (fun () -> swap_ranks t1 t2))
        earlier_non_critical
    in
    List.exists try_critical
      (take max_critical_per_pass (ordered_critical ctg !current critical))
  in
  let global_task_migration () =
    let critical = Repair.critical_tasks ctg !current in
    let try_critical t1 =
      let home = assignment.(t1) in
      let pe_alive k =
        match degraded with None -> true | Some view -> Degraded.pe_alive view k
      in
      let destinations =
        List.init n_pes Fun.id
        |> List.filter (fun k -> k <> home && pe_alive k)
        |> List.map (fun k -> (Repair.move_energy kernel ctg ~assignment t1 k, k))
        |> List.sort compare |> List.map snd
      in
      List.exists
        (fun k ->
          try_apply (fun () -> assignment.(t1) <- k) (fun () -> assignment.(t1) <- home))
        destinations
    in
    List.exists try_critical
      (take max_critical_per_pass (ordered_critical ctg !current critical))
  in
  let lts_enabled = match moves with Repair.Both | Lts_only -> true | Gtm_only -> false in
  let gtm_enabled = match moves with Repair.Both | Gtm_only -> true | Lts_only -> false in
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
  in
  fix ();
  ( !current,
    {
      Repair.accepted_swaps = !swaps;
      accepted_migrations = !migrations;
      evaluations = !evaluations;
    } )

(* Noc_eas.Fault_resched.run's migrate / rebuild / repair / full-rerun
   pipeline with the reference search in the repair step. *)
let fault_resched platform ctg ~faults schedule =
  let module F = Noc_eas.Fault_resched in
  let count_rerouted candidate =
    let originals = Schedule.transactions schedule in
    Array.fold_left
      (fun acc (tr : Schedule.transaction) ->
        if tr.route <> originals.(tr.edge).Schedule.route then acc + 1 else acc)
      0 (Schedule.transactions candidate)
  in
  let finish ~migrated ~used_full_rerun ~repair s =
    let misses, lateness = score ctg s in
    {
      F.schedule = s;
      stats =
        {
          F.migrated_tasks = migrated;
          rerouted_transactions = count_rerouted s;
          misses;
          lateness;
          used_full_rerun;
          repair;
        };
    }
  in
  let degraded = Fault_set.degraded faults platform in
  if Degraded.is_trivial degraded then
    finish ~migrated:0 ~used_full_rerun:false ~repair:None schedule
  else begin
    let n_pes = Noc_noc.Platform.n_pes platform in
    let kernel = Kernel.build ~degraded platform ctg in
    let assignment, rank = Rebuild.of_schedule schedule in
    let migrated = ref 0 in
    Array.iteri
      (fun i pe ->
        if not (Degraded.pe_alive degraded pe) then begin
          let best =
            List.init n_pes Fun.id
            |> List.filter (Degraded.pe_alive degraded)
            |> List.map (fun k -> (Repair.move_energy kernel ctg ~assignment i k, k))
            |> List.sort compare |> List.hd |> snd
          in
          assignment.(i) <- best;
          incr migrated
        end)
      (Array.copy assignment);
    let rebuilt =
      try
        Some (Rebuild_reference.run ~degraded platform ctg ~assignment ~rank)
      with Invalid_argument _ -> None
    in
    let repaired =
      match rebuilt with
      | None -> None
      | Some s ->
        if fst (score ctg s) = 0 then Some (s, None)
        else
          let s', st = run ~degraded ~kernel platform ctg s in
          Some (s', Some st)
    in
    match repaired with
    | Some (s, repair) when fst (score ctg s) = 0 ->
      finish ~migrated:!migrated ~used_full_rerun:false ~repair s
    | _ -> (
      let full =
        let base =
          Noc_eas.Eas.schedule ~repair:false ~kernel platform ctg
        in
        if base.stats.misses_before_repair = 0 then base.schedule
        else fst (run ~degraded ~kernel platform ctg base.schedule)
      in
      match repaired with
      | Some (s, repair) when improves (score ctg s) (score ctg full) ->
        finish ~migrated:!migrated ~used_full_rerun:false ~repair s
      | _ -> finish ~migrated:!migrated ~used_full_rerun:true ~repair:None full)
  end
